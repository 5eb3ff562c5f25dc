//! `bffbench compare <a.json> <b.json>`: per workload and end-to-end
//! metric, both values, the relative difference with its base, the bound,
//! and a verdict. The tool for comparing a parent commit with a change,
//! and two sets of runs of one commit with each other.

use crate::json::Json;
use crate::metrics::Better;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct Metric {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
    values: Vec<f64>,
}

/// The end-to-end metrics of each workload in a results file.
fn read(results: &Json) -> Result<Vec<(String, Vec<Metric>)>, String> {
    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no \"workloads\" object")?;
    let mut out = Vec::new();
    for (name, w) in workloads {
        let e2e = w
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no \"end_to_end\" object"))?;
        let mut metrics = Vec::new();
        for (metric, m) in e2e {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("{name}.{metric}: no \"{key}\""))
            };
            metrics.push(Metric {
                name: metric.clone(),
                unit: field("unit")?.as_str().unwrap_or("").to_string(),
                better: field("better")?
                    .as_str()
                    .and_then(Better::parse)
                    .ok_or_else(|| format!("{name}.{metric}: bad \"better\""))?,
                bound: field("bound")?
                    .as_f64()
                    .ok_or_else(|| format!("{name}.{metric}: bad \"bound\""))?,
                values: field("values")?
                    .as_arr()
                    .ok_or_else(|| format!("{name}.{metric}: bad \"values\""))?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
            });
        }
        out.push((name.clone(), metrics));
    }
    Ok(out)
}

/// Print the comparison; `Ok(true)` when no metric is worse.
pub fn compare(a: &Json, b: &Json, out: &mut impl std::io::Write) -> Result<bool, String> {
    let (a, b) = (read(a)?, read(b)?);
    let mut all_ok = true;
    let io = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "{:<17} {:<17} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b vs a", "bound"
    )
    .map_err(io)?;
    for (workload, metrics) in &a {
        let Some((_, others)) = b.iter().find(|(w, _)| w == workload) else {
            writeln!(out, "{workload:<17} missing from b").map_err(io)?;
            all_ok = false;
            continue;
        };
        for m in metrics {
            let Some(o) = others.iter().find(|o| o.name == m.name) else {
                writeln!(out, "{workload:<17} {:<17} missing from b", m.name).map_err(io)?;
                all_ok = false;
                continue;
            };
            let (ma, mb) = (median(&m.values), median(&o.values));
            let v = verdict(&m.values, &o.values, m.better, m.bound);
            all_ok &= v != Verdict::Worse;
            let spreads = match (spread(&m.values), spread(&o.values)) {
                (Some(sa), Some(sb)) => {
                    format!("  (spread {:.1}% / {:.1}%)", sa * 100.0, sb * 100.0)
                }
                _ => String::new(),
            };
            writeln!(
                out,
                "{workload:<17} {:<17} {ma:>12.4} {mb:>12.4} {:>+8.1}% {:>6.0}%  {}{spreads} [{}, {} is better]",
                m.name,
                // Signed so that plus always means b measured higher.
                if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 },
                m.bound * 100.0,
                v.name(),
                m.unit,
                m.better.name(),
            )
            .map_err(io)?;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = |m: f64| vec![m * 0.995, m, m * 1.005, m * 0.999, m * 1.001];
        // Within the bound, either way.
        assert_eq!(
            verdict(&steady(100.0), &steady(108.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(50.0), Better::Lower, 0.10),
            Verdict::Ok
        );
        // Beyond it.
        assert_eq!(
            verdict(&steady(100.0), &steady(112.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady(100.0), &steady(88.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound decides nothing.
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 115.0];
        assert_eq!(
            verdict(&noisy, &steady(150.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single run has no spread: it is compared as it is.
        assert_eq!(
            verdict(&[100.0], &[103.0], Better::Lower, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&[100.0], &[106.0], Better::Lower, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn compares_two_result_files() {
        let file = |cycles: &[f64]| {
            Json::obj([(
                "workloads",
                Json::obj([(
                    "deploy_cold",
                    Json::obj([(
                        "end_to_end",
                        Json::obj([(
                            "cycles_per_s",
                            Json::obj([
                                ("unit", Json::str("1/s")),
                                ("better", Json::str("higher")),
                                ("bound", Json::Num(0.1)),
                                ("values", Json::nums(cycles)),
                            ]),
                        )]),
                    )]),
                )]),
            )])
        };
        let mut out = Vec::new();
        assert!(compare(&file(&[600.0]), &file(&[590.0]), &mut out).unwrap());
        assert!(!compare(&file(&[600.0]), &file(&[500.0]), &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(" ok") && text.contains(" worse"), "{text}");
        assert!(compare(&Json::Null, &file(&[1.0]), &mut Vec::new()).is_err());
    }
}
