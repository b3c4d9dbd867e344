//! The typed result an invocation prints as its last stdout line:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

use crate::json::Json;
use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Runs attempted, and runs that panicked or disagreed with their
    /// seed's outcome.
    pub attempted: u64,
    pub failed: u64,
    /// In emission order; names are unique.
    pub metrics: Vec<(String, Metric)>,
}

const KEYS: [&str; 4] = ["correct", "attempted", "failed", "metrics"];

impl Report {
    /// Append a metric. Values must be finite, as JSON cannot carry others.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push((
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        ));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let metric = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                ];
                (name.clone(), Json::Obj(metric))
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }

    /// Read a report back, rejecting missing, extra or mistyped fields.
    pub fn from_json(json: &Json) -> Result<Report, String> {
        let members = json.as_object().ok_or("a report is a JSON object")?;
        if let Some((key, _)) = members.iter().find(|(k, _)| !KEYS.contains(&k.as_str())) {
            return Err(format!("unexpected report key {key:?}"));
        }
        let field = |key: &str| json.get(key).ok_or_else(|| format!("report lacks {key:?}"));
        let count = |key: &str| match field(key)?.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(53) => Ok(n as u64),
            _ => Err(format!("{key:?} is not a whole number")),
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit, m.as_object().map(<[_]>::len)) {
                    (Some(value), Some(unit), Some(2)) => Ok((
                        name.clone(),
                        Metric {
                            value,
                            unit: unit.to_string(),
                        },
                    )),
                    _ => Err(format!("metric {name:?} is not {{\"value\", \"unit\"}}")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Report {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a boolean")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        Report::from_json(&Json::parse(text)?)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}
