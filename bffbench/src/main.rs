//! `bffbench` — the repository's benchmark. See `README.md` beside the
//! manifest for workloads, metrics and how the layers are measured.
//!
//! ```text
//! bffbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of standard output is the result object
//! bffbench [--seed <n>] [--seconds <s>] [--repeat <n>] [--smoke] [--out <dir>]
//!     every workload untraced, then traced; prints every metric and
//!     writes results.json and trace-<workload>.jsonl
//! bffbench compare <a.json> <b.json>
//! bffbench manifest
//! ```

mod compare;
mod deploy;
mod env;
mod gen;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::MetricDef;
use run::{RunOutput, RunParams};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        repeat: 1,
        smoke: false,
        out: env::output_dir(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.smoke {
        parsed.seconds = parsed.seconds.min(0.3);
    }
    Ok(parsed)
}

fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("", |d| d.unit)
}

/// The result object of one run, as the driver reads it.
fn result_line(out: &RunOutput, defs: &[MetricDef]) -> String {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|(name, value)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(defs, name))),
                    ]),
                )
            })),
        ),
    ])
    .compact()
}

fn report_problems(out: &RunOutput) {
    for p in &out.problems {
        eprintln!("bffbench: {}: {p}", out.params.workload.name());
    }
}

/// One run for the driver.
fn single(args: &Args, workload: Workload) -> ExitCode {
    let out = run::run(
        RunParams {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            smoke: args.smoke,
        },
        &args.out,
    );
    report_problems(&out);
    let defs = if args.traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for (name, value) in out.detail.iter().chain(&out.metrics) {
        eprintln!("{name:<44} {value:>16.4} {}", unit_of(&defs, name));
    }
    println!("{}", result_line(&out, &defs));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn pairs(values: &[(String, f64)]) -> Json {
    Json::obj(values.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
}

/// Every workload: `repeat` untraced runs for the end-to-end metrics, one
/// traced run for the per-layer metrics. Returns the results document and
/// whether every run was correct.
fn full(args: &Args) -> (Json, bool) {
    let e2e_defs = metrics::end_to_end();
    let layer_defs = metrics::per_layer();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let fsync_us = env::fsync_us_p50(&args.out.join("probe"), 200).unwrap_or(0.0);
    println!(
        "bffbench: seed {}, {} s per run, {} untraced run(s) + 1 traced per workload; \
         {} closed-loop clients, nproc {}, fsync p50 {:.0} us, commit {}",
        args.seed,
        args.seconds,
        args.repeat,
        workloads::CLIENTS,
        env::nproc(),
        fsync_us,
        env::git_commit(),
    );
    for workload in Workload::ALL {
        println!("\n== {} — {}", workload.name(), workload.why());
        let params = |traced| RunParams {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            traced,
            smoke: args.smoke,
        };
        let untraced: Vec<RunOutput> = (0..args.repeat)
            .map(|_| run::run(params(false), &args.out))
            .collect();
        let traced = run::run(params(true), &args.out);
        for out in untraced.iter().chain([&traced]) {
            report_problems(out);
            all_correct &= out.correct;
        }

        println!("-- end to end (tracing off)");
        let mut e2e = Vec::new();
        for d in &e2e_defs {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|o| o.metrics.iter().find(|(n, _)| *n == d.name))
                .map(|(_, v)| *v)
                .collect();
            let med = stats::median(&values);
            let mut fields = vec![
                ("unit", Json::str(d.unit)),
                ("better", Json::str(d.better.name())),
                ("bound", Json::Num(d.bound.unwrap_or(0.0))),
                ("values", Json::nums(&values)),
                ("median", Json::Num(med)),
            ];
            let mut quartiles = String::new();
            if let Some((q1, q3)) = stats::quartiles(&values) {
                fields.push(("q1", Json::Num(q1)));
                fields.push(("q3", Json::Num(q3)));
                quartiles = format!("  quartiles {q1:.4} .. {q3:.4} over {} runs", values.len());
            }
            println!("{:<44} {med:>16.4} {}{quartiles}", d.name, d.unit);
            e2e.push((d.name.clone(), Json::obj(fields)));
        }
        let first = &untraced[0];
        for (name, value) in &first.detail {
            println!("   {name:<41} {value:>16.4}");
        }

        println!("-- per layer (tracing on)");
        let mut layer = Vec::new();
        for (name, value) in &traced.metrics {
            let d = layer_defs.iter().find(|d| d.name == *name);
            let unit = d.map_or("", |d| d.unit);
            println!("{name:<44} {value:>16.4} {unit}");
            layer.push((
                name.clone(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                    ("better", Json::str(d.map_or("", |d| d.better.name()))),
                ]),
            ));
        }
        let rate = |o: &RunOutput, key: &str| {
            o.metrics
                .iter()
                .chain(&o.detail)
                .find(|(n, _)| n == key)
                .map_or(0.0, |(_, v)| *v)
        };
        let untraced_rate = stats::median(
            &untraced
                .iter()
                .map(|o| rate(o, "cycles_per_s"))
                .collect::<Vec<_>>(),
        );
        let traced_rate = rate(&traced, "cycles_per_s");
        let overhead = if traced_rate > 0.0 {
            untraced_rate / traced_rate - 1.0
        } else {
            0.0
        };
        println!("{:<44} {overhead:>16.4} ratio", "trace.overhead_frac");

        let trace_file = format!("trace-{}.jsonl", workload.name());
        let written = std::fs::File::create(args.out.join(&trace_file))
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace::write_jsonl(&traced.spans, &mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("bffbench: cannot write {trace_file}: {e}");
        }

        let sizing = workload.sizing(args.smoke);
        workloads.push((
            workload.name().to_string(),
            Json::obj([
                ("why", Json::str(workload.why())),
                (
                    "config",
                    Json::obj(
                        deploy::config_stamp(workload.deploy_kind())
                            .into_iter()
                            .map(|(k, v)| (k, Json::Str(v))),
                    ),
                ),
                (
                    "sizing",
                    Json::obj([
                        ("images", Json::Num(sizing.images as f64)),
                        (
                            "warmup_cycles_per_client",
                            Json::Num(sizing.warmup_cycles as f64),
                        ),
                    ]),
                ),
                (
                    "correct",
                    Json::Bool(untraced.iter().chain([&traced]).all(|o| o.correct)),
                ),
                (
                    "attempted",
                    Json::Num(untraced.iter().map(|o| o.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::Num(untraced.iter().map(|o| o.failed).sum::<u64>() as f64),
                ),
                ("end_to_end", Json::Obj(e2e)),
                ("detail", pairs(&first.detail)),
                ("per_layer", Json::Obj(layer)),
                (
                    "trace",
                    Json::obj([
                        ("overhead_frac", Json::Num(overhead)),
                        ("detail", pairs(&traced.detail)),
                        ("file", Json::Str(trace_file)),
                    ]),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("bffbench")),
        ("git_commit", Json::Str(env::git_commit())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("clients", Json::Num(workloads::CLIENTS as f64)),
        (
            "env",
            Json::obj([
                ("nproc", Json::Num(env::nproc() as f64)),
                ("fsync_us_p50", Json::Num(fsync_us)),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    (doc, all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn fail(message: &str) -> ExitCode {
    eprintln!("bffbench: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return fail("usage: bffbench compare <a.json> <b.json>");
            };
            let compared = load(a)
                .and_then(|a| Ok((a, load(b)?)))
                .and_then(|(a, b)| compare::compare(&a, &b, &mut std::io::stdout().lock()));
            return match compared {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => fail(&e),
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if let Err(e) = env::refuse_bff_variables() {
        return fail(&e);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        return fail(&format!("{}: {e}", args.out.display()));
    }
    if let Some(workload) = args.workload {
        return single(&args, workload);
    }
    let (doc, correct) = full(&args);
    let path: &Path = &args.out.join("results.json");
    match std::fs::write(path, doc.pretty()) {
        Ok(()) => println!("\n[written {}]", path.display()),
        Err(e) => return fail(&format!("{}: {e}", path.display())),
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole benchmark end to end at smoke scale: every workload
    /// untraced and traced, outputs verified, the traced time fully
    /// attributed.
    #[test]
    fn smoke_runs_every_workload_and_attributes_the_time() {
        let out = env::output_dir().join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let args = Args {
            workload: None,
            seed: 42,
            seconds: 0.3,
            traced: false,
            repeat: 1,
            smoke: true,
            out: out.clone(),
        };
        let clock = std::time::Instant::now();
        let (doc, correct) = full(&args);
        let took = clock.elapsed();
        assert!(correct, "a smoke run failed verification");
        let e2e_defs = metrics::end_to_end();
        let layer_defs = metrics::per_layer();
        for w in Workload::ALL {
            let r = doc.get("workloads").unwrap().get(w.name()).unwrap();
            assert_eq!(r.get("failed").unwrap().as_f64(), Some(0.0), "{}", w.name());
            // Every listed metric is reported, by every workload.
            let e2e = r.get("end_to_end").unwrap();
            for d in &e2e_defs {
                let v = e2e.get(&d.name).unwrap().get("median").unwrap().as_f64();
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{} {} = {v:?}",
                    w.name(),
                    d.name
                );
            }
            let layer = r.get("per_layer").unwrap();
            let value = |name: &str| {
                layer
                    .get(name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", w.name()))
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .unwrap_or_else(|| panic!("{} {name} is not a number", w.name()))
            };
            for d in &layer_defs {
                assert!(value(&d.name) >= 0.0, "{} {}", w.name(), d.name);
            }
            assert_eq!(layer.as_obj().unwrap().len(), layer_defs.len());
            // The layers' shares of the clients' busy time add up.
            let shares = value("cloud.client_self_share")
                + value("net.call.self_share")
                + value("blobseer.server.handle_share")
                + value("trace.unattributed_frac");
            assert!(
                (shares - 1.0).abs() < 0.05,
                "{}: shares sum to {shares}",
                w.name()
            );
            assert!(value("trace.unattributed_frac") < 0.05, "{}", w.name());
            assert_eq!(value("trace.unmatched_handler_spans"), 0.0, "{}", w.name());
            assert!(value("trace.spans") > 0.0);
            if w.deploy_kind() == deploy::DeployKind::Durable {
                assert_eq!(value("durable.recovered_identity"), 1.0, "{}", w.name());
                assert!(value("durable.fsyncs_per_snapshot") > 0.0);
            }
            if w.deploy_kind() == deploy::DeployKind::Direct {
                assert_eq!(value("net.call.self_share"), 0.0);
            } else {
                assert!(value("net.call.self_share") > 0.0);
                assert!(value("net.calls_per_boot") > 0.0 || w == Workload::SnapshotDurable);
            }
            assert!(out.join(format!("trace-{}.jsonl", w.name())).exists());
        }
        // The results file reads back and compares equal to itself.
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert!(compare::compare(&back, &back, &mut Vec::new()).unwrap());
        assert!(took.as_secs_f64() < 30.0, "smoke took {took:?}");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn arguments() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload rotate_direct --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::RotateDirect));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--frobnicate").is_err());
        assert_eq!(parse("--smoke").unwrap().seconds, 0.3);
    }
}
