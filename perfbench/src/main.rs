//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the report lines, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Writes the results (and, traced,
//! the spans) under `.bench_out/` in the working directory.

use std::process::ExitCode;

use perfbench::workloads::{self, Scale, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", NAMES.join(", ")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The backfill's scripted worker crash is the drill working; keep the
    // default hook for any other panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let Some(out) = workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    ) else {
        return ExitCode::from(2);
    };
    for line in out.lines() {
        println!("{line}");
    }
    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        out.workload, out.seed, args.trace as u8
    );
    let written = std::fs::create_dir_all(".bench_out").and_then(|()| {
        std::fs::write(format!("{stem}.json"), out.results_json())?;
        match &out.spans {
            Some(spans) => std::fs::write(format!("{stem}.spans.json"), spans),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
