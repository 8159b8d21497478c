//! The machine-readable run report.
//!
//! One JSON object per run: schema version, the command and its
//! arguments (with a config fingerprint so reports from
//! identical invocations are trivially groupable), per-command metrics,
//! and the thread's span/counter aggregates. Callers write it with
//! `qpredict_durable::write_atomic` (tmp file, sync, rename), the writer
//! the search checkpoints and serve snapshots use, so a reader never
//! observes a torn report.
//!
//! ## Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "command": "simulate",
//!   "config": { "fingerprint": "9e3779b97f4a7c15", "args": ["…"] },
//!   "metrics": { "n_jobs": 150, "mean_wait_min": 4.2 },
//!   "spans": [ { "label": "sim.run", "count": 1, "total_ns": 1,
//!                "max_ns": 1, "mean_ns": 1.0, "buckets": [0, …] } ],
//!   "counters": [ { "name": "cache.hits", "value": 12 } ]
//! }
//! ```

use crate::json::Json;
use crate::ObsSnapshot;

/// Version stamped into (and required of) every report.
pub const SCHEMA_VERSION: u64 = 1;

/// Builder for one run's report.
#[derive(Debug, Clone)]
pub struct RunReport {
    command: String,
    args: Vec<String>,
    metrics: Vec<(String, Json)>,
}

impl RunReport {
    /// Start a report for `command` invoked with `args` (the full
    /// argument vector, command included, as the user typed it).
    pub fn new(command: &str, args: &[String]) -> RunReport {
        RunReport {
            command: command.to_string(),
            args: args.to_vec(),
            metrics: Vec::new(),
        }
    }

    /// Attach one per-command metric (appended in call order).
    pub fn metric(&mut self, key: &str, value: Json) {
        self.metrics.push((key.to_string(), value));
    }

    /// The config fingerprint: [`qpredict_durable::checksum`] of the
    /// NUL-joined argument vector, as a 16-digit hex string.
    pub fn fingerprint(&self) -> String {
        let bytes: Vec<u8> = self
            .args
            .iter()
            .flat_map(|a| a.bytes().chain([0]))
            .collect();
        format!("{:016x}", qpredict_durable::checksum(&bytes))
    }

    /// Assemble the report around a registry snapshot (usually
    /// [`crate::snapshot`] taken at the end of the run).
    pub fn to_json(&self, obs: &ObsSnapshot) -> Json {
        let spans = obs
            .spans
            .iter()
            .map(|(label, s)| {
                Json::Obj(vec![
                    ("label".into(), Json::Str(label.clone())),
                    ("count".into(), Json::Num(s.count as f64)),
                    ("total_ns".into(), Json::Num(s.total_ns as f64)),
                    ("max_ns".into(), Json::Num(s.max_ns as f64)),
                    ("mean_ns".into(), Json::Num(s.mean_ns())),
                    (
                        "buckets".into(),
                        Json::Arr(s.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
                    ),
                ])
            })
            .collect();
        let counters = obs
            .counters
            .iter()
            .map(|(name, v)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), Json::Num(*v as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("command".into(), Json::Str(self.command.clone())),
            (
                "config".into(),
                Json::Obj(vec![
                    ("fingerprint".into(), Json::Str(self.fingerprint())),
                    (
                        "args".into(),
                        Json::Arr(self.args.iter().map(|a| Json::Str(a.clone())).collect()),
                    ),
                ]),
            ),
            ("metrics".into(), Json::Obj(self.metrics.clone())),
            ("spans".into(), Json::Arr(spans)),
            ("counters".into(), Json::Arr(counters)),
        ])
    }
}

/// Check that `report` is a well-formed version-1 run report. With
/// `require_activity`, additionally require at least one span and one
/// counter (a report from an instrumented run cannot be empty — an
/// empty one means recording never reached the run).
pub fn validate(report: &Json, require_activity: bool) -> Result<(), String> {
    let version = report
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"schema_version\"")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    let command = report
        .get("command")
        .and_then(Json::as_str)
        .ok_or("missing string \"command\"")?;
    if command.is_empty() {
        return Err("\"command\" is empty".into());
    }
    let config = report.get("config").ok_or("missing \"config\"")?;
    let fp = config
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("missing string \"config.fingerprint\"")?;
    if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed fingerprint {fp:?}"));
    }
    let args = config
        .get("args")
        .and_then(Json::as_arr)
        .ok_or("missing array \"config.args\"")?;
    if args.iter().any(|a| a.as_str().is_none()) {
        return Err("\"config.args\" must contain only strings".into());
    }
    report
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("missing object \"metrics\"")?;
    let spans = report
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing array \"spans\"")?;
    for (i, s) in spans.iter().enumerate() {
        let label = s
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("span[{i}] missing string \"label\""))?;
        for key in ["count", "total_ns", "max_ns", "mean_ns"] {
            s.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("span {label:?} missing numeric {key:?}"))?;
        }
        let buckets = s
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("span {label:?} missing array \"buckets\""))?;
        if buckets.len() != crate::HIST_BUCKETS {
            return Err(format!(
                "span {label:?} has {} buckets (expected {})",
                buckets.len(),
                crate::HIST_BUCKETS
            ));
        }
    }
    let counters = report
        .get("counters")
        .and_then(Json::as_arr)
        .ok_or("missing array \"counters\"")?;
    for (i, c) in counters.iter().enumerate() {
        c.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("counter[{i}] missing string \"name\""))?;
        c.get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("counter[{i}] missing numeric \"value\""))?;
    }
    if require_activity {
        if spans.is_empty() {
            return Err("report has no spans (was recording enabled?)".into());
        }
        if counters.is_empty() {
            return Err("report has no counters (was recording enabled?)".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ObsSnapshot {
        let mut buckets = [0u64; crate::HIST_BUCKETS];
        buckets[7] = 2;
        let stats = crate::SpanStats {
            count: 2,
            total_ns: 300,
            max_ns: 200,
            buckets,
        };
        ObsSnapshot {
            spans: vec![("sim.run".into(), stats)],
            counters: vec![("cache.hits".into(), 5)],
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mut r = RunReport::new("simulate", &["simulate".into(), "toy".into()]);
        r.metric("n_jobs", Json::Num(150.0));
        let j = r.to_json(&sample_snapshot());
        let text = j.to_pretty();
        let back = Json::parse(&text).expect("report parses");
        assert_eq!(back, j);
        validate(&back, true).expect("schema-valid");
        assert_eq!(back.get("command").unwrap().as_str(), Some("simulate"));
    }

    #[test]
    fn fingerprint_depends_on_args_only() {
        let a = RunReport::new("simulate", &["simulate".into(), "toy".into()]);
        let b = RunReport::new("simulate", &["simulate".into(), "toy".into()]);
        let c = RunReport::new("simulate", &["simulate".into(), "ANL".into()]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
    }

    #[test]
    fn validate_rejects_missing_and_empty() {
        let r = RunReport::new("x", &[]);
        let empty = r.to_json(&ObsSnapshot::default());
        validate(&empty, false).expect("structurally fine");
        assert!(validate(&empty, true).is_err(), "no activity must fail");
        let not_report = Json::Obj(vec![("schema_version".into(), Json::Num(1.0))]);
        assert!(validate(&not_report, false).is_err());
        let wrong_version = Json::parse(
            &r.to_json(&sample_snapshot())
                .to_pretty()
                .replace("\"schema_version\": 1", "\"schema_version\": 99"),
        )
        .unwrap();
        assert!(validate(&wrong_version, false).is_err());
    }
}
