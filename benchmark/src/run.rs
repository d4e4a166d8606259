//! One benchmark run: parse the driver's arguments, execute the phases,
//! print the report and the result line.

use crate::calib;
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::env::{fingerprint_json, Scratch};
use crate::gen::KeyPicker;
use crate::measure::Samples;
use crate::phases::{self, Ctx, Phase};
use crate::profile::{Counts, Profile, PHASES, PROFILES, RUN_SECONDS};
use crate::remote::build_pam_serve;
use crate::report::Report;
use crate::trace::{chrome_json, totals, Tracer};
use std::time::Instant;

struct RunArgs {
    profile: Profile,
    seed: u64,
    seconds: u64,
    trace: bool,
    only: Option<Vec<String>>,
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut only = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?
                    .max(1)
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--only" => {
                let list: Vec<String> = value()?.split(',').map(str::to_string).collect();
                if let Some(bad) = list.iter().find(|p| !PHASES.contains(&p.as_str())) {
                    return Err(format!(
                        "--only: unknown phase {bad}; phases are {PHASES:?}"
                    ));
                }
                only = Some(list);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let profile = *PROFILES
        .iter()
        .find(|p| p.name == workload)
        .ok_or_else(|| {
            let names: Vec<&str> = PROFILES.iter().map(|p| p.name).collect();
            format!("unknown workload {workload}; workloads are {names:?}")
        })?;
    Ok(RunArgs {
        profile,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        only,
    })
}

/// Execute one run as the driver invokes it.
///
/// # Errors
///
/// Bad arguments, a failed build of `pam-serve`, an I/O failure, a
/// metric that could not be measured, or a failed correctness check —
/// each ends the run without a result line.
pub fn main(args: &[String]) -> Result<(), String> {
    let a = parse(args)?;
    let selected = |phase: &str| a.only.as_ref().is_none_or(|o| o.iter().any(|p| p == phase));
    // fail on a missing server binary before any minute of measuring
    let serve_bin = if selected("serve-read") || selected("serve-mixed") {
        Some(build_pam_serve()?)
    } else {
        None
    };

    let mut scratch = Scratch::create(a.profile.name).map_err(|e| format!("scratch dir: {e}"))?;
    println!(
        "# pam-benchmark workload={} seed={} seconds={} trace={}",
        a.profile.name, a.seed, a.seconds, a.trace as u8
    );
    println!("# conditions {}", fingerprint_json());

    let tracer = Tracer::new(a.trace);
    let picker = KeyPicker::new(a.profile.dist);
    let mut report = Report::default();
    let mut ctx = Ctx {
        seed: a.seed,
        counts: Counts::new(a.seconds, a.trace),
        tracer: &tracer,
        picker: &picker,
        report: &mut report,
        scratch: &scratch,
        setup_s: 0.0,
        preloaded: None,
    };
    let started = Instant::now();
    let mut rec = tracer.recorder(0);

    // prepare every selected phase: inputs, set-up, oracle
    let mut phases: Vec<Box<dyn Phase>> = Vec::new();
    let mut prepare = |name: &str, phase: Result<Box<dyn Phase>, String>| {
        phases.push(phase?);
        println!(
            "# prepared {name} at {:.2} s",
            started.elapsed().as_secs_f64()
        );
        Ok::<(), String>(())
    };
    if selected("tree-bulk") {
        prepare(
            "tree-bulk",
            Ok(phases::tree_bulk::prepare(&mut ctx, &mut rec)),
        )?;
    }
    if selected("tree-read") {
        prepare(
            "tree-read",
            Ok(phases::tree_read::prepare(&mut ctx, &mut rec)),
        )?;
    }
    if selected("apps") {
        prepare("apps", Ok(phases::apps::prepare(&mut ctx, &mut rec)))?;
    }
    if selected("store-commit") {
        prepare(
            "store-commit",
            phases::store_commit::prepare(&mut ctx, &mut rec),
        )?;
    }
    if let Some(bin) = &serve_bin {
        let (read, mixed) = (selected("serve-read"), selected("serve-mixed"));
        prepare(
            "serve",
            phases::serve::prepare(&mut ctx, &mut rec, bin, read, mixed),
        )?;
    }

    // a warm-up round, then the measured ones; every phase takes part in
    // every round, so each metric samples the whole run
    let mut calibration = Samples::default();
    for round in 0..=ctx.counts.rounds {
        let span = rec.begin("driver", "round", Some(round as u64));
        calibration.time(&mut rec, "driver", "calibration", || {
            calib::kernel(round as u64)
        });
        for phase in &mut phases {
            phase.round(&mut ctx, &mut rec)?;
            if round == 0 {
                phase.reset();
            }
        }
        if round == 0 {
            calibration = Samples::default();
        }
        rec.end(span);
    }
    println!(
        "# {} rounds done at {:.2} s",
        ctx.counts.rounds,
        started.elapsed().as_secs_f64()
    );
    for phase in phases {
        phase.finish(&mut ctx, &mut rec)?;
    }
    let setup_s = ctx.setup_s;
    drop(rec);
    println!("# run took {:.2} s", started.elapsed().as_secs_f64());

    let kernel_s = calibration.typical();
    let factor = calib::factor(kernel_s);
    println!(
        "# calibration kernel {:.1} ms (nominal {:.1} ms): machine factor {factor:.4}",
        kernel_s * 1e3,
        calib::NOMINAL_S * 1e3
    );
    let line = if a.trace {
        write_trace(&tracer, a.profile.name)?;
        report.set("driver.calibration_ms", kernel_s * 1e3);
        report.set("driver.machine_factor", factor);
        report.finish(PER_LAYER, 1.0, a.only.is_some())?
    } else {
        report.set("setup_s", setup_s);
        report.finish(END_TO_END, factor, a.only.is_some())?
    };
    scratch.succeed();
    println!("{line}");
    Ok(())
}

/// Write the run's spans as `benchmark/out/trace-<workload>.json` and
/// print each layer's total and self time.
fn write_trace(tracer: &Tracer, workload: &str) -> Result<(), String> {
    let spans = tracer.spans();
    let path = crate::env::bench_dir()
        .join("out")
        .join(format!("trace-{workload}.json"));
    std::fs::write(&path, chrome_json(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# trace: {} spans -> {}", spans.len(), path.display());
    println!(
        "# {:<14} {:<24} {:>9} {:>12} {:>12}",
        "layer", "span", "count", "total ms", "self ms"
    );
    for ((layer, name), t) in totals(&spans) {
        println!(
            "# {layer:<14} {name:<24} {:>9} {:>12.2} {:>12.2}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(())
}
