//! `fastg-lint` CLI: scans the workspace and checks diagnostics against the
//! checked-in baseline ratchet.
//!
//! ```text
//! fastg-lint                  # list every diagnostic (informational)
//! fastg-lint --check          # fail (exit 1) on any violation over baseline
//! fastg-lint --json           # machine-readable diagnostics on stdout
//! fastg-lint --update-baseline  # rewrite lint-baseline.json to current state
//! fastg-lint --baseline FILE  # use FILE instead of <root>/lint-baseline.json
//! fastg-lint --root DIR       # scan DIR instead of the workspace root
//! ```

use fastg_lint::{check, diagnostics_json, lint_workspace, Baseline};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    check: bool,
    json: bool,
    update_baseline: bool,
}

const USAGE: &str = "usage: fastg-lint [--check] [--json] [--update-baseline] \
[--baseline FILE] [--root DIR]";

fn parse_args() -> Result<Options, String> {
    let default_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let mut opts = Options {
        root: default_root,
        baseline: None,
        check: false,
        json: false,
        update_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            "--update-baseline" => opts.update_baseline = true,
            "--baseline" => {
                let path = args.next().ok_or("--baseline needs a file argument")?;
                opts.baseline = Some(PathBuf::from(path));
            }
            "--root" => {
                let path = args.next().ok_or("--root needs a directory argument")?;
                opts.root = PathBuf::from(path);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let root = opts
        .root
        .canonicalize()
        .map_err(|e| format!("cannot resolve root {}: {e}", opts.root.display()))?;
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("lint-baseline.json"));

    let (diags, scanned) = lint_workspace(&root)?;

    if opts.update_baseline {
        let baseline = Baseline::from_diagnostics(&diags);
        fs::write(&baseline_path, baseline.render())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        eprintln!(
            "fastg-lint: wrote baseline with {} entries across {} rules to {}",
            baseline.total(),
            baseline.entries.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if opts.json {
        print!("{}", diagnostics_json(&diags));
        if !opts.check {
            return Ok(ExitCode::SUCCESS);
        }
    }

    if opts.check {
        let baseline = if baseline_path.exists() {
            let text = fs::read_to_string(&baseline_path)
                .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
            Baseline::parse(&text)?
        } else {
            Baseline::default()
        };
        let report = check(&diags, &baseline);
        for (rule, file, found, allowed) in &report.regressions {
            // Point at concrete positions for the offending (rule, file).
            for d in diags.iter().filter(|d| d.rule == *rule && d.file == *file) {
                eprintln!("{d}");
            }
            eprintln!(
                "fastg-lint: {file}: rule `{rule}` has {found} violations, baseline allows {allowed}"
            );
        }
        for (rule, file, found, allowed) in &report.stale {
            eprintln!(
                "fastg-lint: note: stale baseline entry {file} / `{rule}`: allows {allowed}, found {found} (run --update-baseline to tighten)"
            );
        }
        if report.passed() {
            eprintln!(
                "fastg-lint: OK — {} files scanned, {} findings, all within baseline ({})",
                scanned,
                diags.len(),
                baseline_path.display()
            );
            return Ok(ExitCode::SUCCESS);
        }
        eprintln!(
            "fastg-lint: FAILED — {} (rule, file) pair(s) over baseline",
            report.regressions.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    if !opts.json {
        for d in &diags {
            println!("{d}");
        }
        eprintln!(
            "fastg-lint: {} files scanned, {} findings",
            scanned,
            diags.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fastg-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
