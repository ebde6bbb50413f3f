//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! Prints the notes and every metric by name and unit, then, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its metrics and spans to
//! `out/trace-<workload>-<seed>.json` in this package's directory. Exits
//! 1 if any output check failed, 2 on a bad argument.

use e2ebench::{run, Opts, Report, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Thm1LongPipe,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !opts.seconds.is_finite() || opts.seconds < 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in Report::catalogue(opts.trace) {
        println!("{name} = {} {unit}", report.get(&name).unwrap_or(0.0));
    }
    let line = report.json(opts.trace);
    if let Some(tracer) = &report.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"result\": {line},\n\"spans\": {}}}\n",
            opts.workload.name(),
            opts.seed,
            tracer.to_json()
        );
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
