//! The `pardis-analyze` driver: runs the static lint pass over an IDL
//! corpus and drives the runtime verification passes on the testbed.

use pardis_analyze::{idl, lockcheck, racecheck, scenarios};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
pardis-analyze — collective-consistency analysis for PARDIS

USAGE:
    pardis-analyze [COMMAND] [ARGS]

COMMANDS:
    all                 run every pass (default): corpus, clean, runtime,
                        lockcheck, race
    lint <paths...>     lint .idl files or directories, print findings
    corpus [DIR]        check the seeded defect corpus against .expect files
                        (default: tests/analyze_corpus)
    clean [DIR...]      assert zero findings on known-good IDL
                        (default: examples/idl)
    runtime             run the divergent SPMD scenarios on the testbed
    lockcheck           build the wait-for graph (locks + pending
                        collectives), report PA102/PA203 cycles
    race [SEED]         replay the seeded race scenarios (PA201/PA202),
                        print JSON findings (default seed: 0x5EED)

EXIT CODES:
    0  everything as expected
    1  findings deviate from expectations / a pass failed
    2  usage or I/O error
";

/// The workspace root: the binary is run from it via `cargo run -p
/// pardis-analyze`, but fall back to the build-time manifest location
/// so it also works from elsewhere.
fn repo_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("tests/analyze_corpus").is_dir() {
        cwd
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }
}

fn print_findings(path: &Path, findings: &[idl::Finding]) {
    for f in findings {
        println!(
            "{}:{}: {} [{}]: {}",
            path.display(),
            f.line,
            f.severity,
            f.code,
            f.message
        );
    }
}

/// `lint`: print findings; exit 1 if any.
fn cmd_lint(paths: &[String]) -> Result<bool, String> {
    if paths.is_empty() {
        return Err("lint: no paths given".into());
    }
    let mut files = Vec::new();
    for p in paths {
        let p = PathBuf::from(p);
        if p.is_dir() {
            files.extend(idl::idl_files(&p)?);
        } else {
            files.push(p);
        }
    }
    let mut any = false;
    for f in &files {
        let findings = idl::lint_file(f, &[])?;
        any |= !findings.is_empty();
        print_findings(f, &findings);
    }
    println!("lint: {} file(s) checked", files.len());
    Ok(!any)
}

/// `corpus`: every seeded defect must be flagged, exactly.
fn cmd_corpus(dir: &Path) -> Result<bool, String> {
    let results = idl::check_corpus(dir)?;
    let mut ok = true;
    for r in &results {
        if r.matches() {
            println!(
                "corpus: {}: ok ({} finding(s))",
                r.path.display(),
                r.actual.len()
            );
        } else {
            ok = false;
            println!(
                "corpus: {}: MISMATCH\n  expected: {:?}\n  actual:   {:?}",
                r.path.display(),
                r.expected,
                r.actual
            );
        }
    }
    println!("corpus: {} file(s) checked", results.len());
    Ok(ok)
}

/// `clean`: zero findings on the known-good set (false-positive guard).
fn cmd_clean(dirs: &[PathBuf]) -> Result<bool, String> {
    let mut ok = true;
    let mut n = 0usize;
    for dir in dirs {
        for f in idl::idl_files(dir)? {
            n += 1;
            let findings = idl::lint_file(&f, &[])?;
            if findings.is_empty() {
                println!("clean: {}: ok", f.display());
            } else {
                ok = false;
                println!("clean: {}: FALSE POSITIVES", f.display());
                print_findings(&f, &findings);
            }
        }
    }
    println!("clean: {n} file(s) checked");
    Ok(ok)
}

/// `runtime`: divergent scenarios must fail with CollectiveMismatch,
/// the uniform control must pass.
fn cmd_runtime() -> Result<bool, String> {
    let mut ok = true;
    for s in scenarios::Scenario::all() {
        let outcomes = scenarios::run(s)?;
        let problems = scenarios::check(s, &outcomes);
        if problems.is_empty() {
            let verdict = if s.is_divergent() {
                "rejected with CollectiveMismatch on every thread"
            } else {
                "accepted on every thread"
            };
            println!("runtime: {}: ok — {verdict}", s.name());
            if let Some(Err(e)) = outcomes.iter().map(|o| &o.result).find(|r| r.is_err()) {
                println!("  e.g. {e}");
            }
        } else {
            ok = false;
            for p in problems {
                println!("runtime: FAIL: {p}");
            }
        }
    }
    Ok(ok)
}

/// `lockcheck`: the real RTS workload must be cycle-free, both seeded
/// inversions (lock/lock and lock/collective) must be caught and
/// classified.
fn cmd_lockcheck() -> Result<bool, String> {
    let mut ok = true;
    let report = lockcheck::check_rts_locks()?;
    println!(
        "lockcheck: RTS RMA workload: {} node(s), {} wait-for edge(s) observed",
        report.classes.len(),
        report.edges.len()
    );
    for c in &report.classes {
        println!("  node {c}");
    }
    for (a, b) in &report.edges {
        println!("  edge {a} -> {b}");
    }
    if report.cycles.is_empty() {
        println!("lockcheck: RTS wait-for order: ok — no cycles");
    } else {
        ok = false;
        for c in &report.cycles {
            println!(
                "lockcheck: {}: wait-for cycle: {}",
                lockcheck::cycle_code(c),
                lockcheck::cycle_path(c)
            );
        }
    }
    let seeded = lockcheck::seeded_inversion();
    match seeded.first() {
        Some(c) if lockcheck::cycle_code(c) == "PA102" => {
            println!(
                "lockcheck: seeded lock inversion detected as expected (PA102): {}",
                lockcheck::cycle_path(c)
            );
        }
        _ => {
            ok = false;
            println!("lockcheck: FAIL: seeded lock inversion was not detected as PA102");
        }
    }
    let mixed = lockcheck::seeded_collective_inversion();
    match mixed.cycles.first() {
        Some(c) if lockcheck::cycle_code(c) == "PA203" && mixed.lock_only.is_empty() => {
            println!(
                "lockcheck: seeded lock/collective inversion detected as expected \
                 (PA203): {} — invisible to the lock-only graph ({} cycle(s))",
                lockcheck::cycle_path(c),
                mixed.lock_only.len()
            );
        }
        _ => {
            ok = false;
            println!(
                "lockcheck: FAIL: seeded lock/collective inversion was not detected \
                 as PA203 (cycles: {:?}, lock-only: {:?})",
                mixed.cycles, mixed.lock_only
            );
        }
    }
    Ok(ok)
}

/// `race`: the seeded racy run must be flagged (PA201) and replay
/// bit-for-bit, the clean run must be silent, the window program must
/// be flagged (PA202) with nothing or a gather between its writes and
/// silent with a barrier between them. Findings print as JSON.
fn cmd_race(seed: u64) -> Result<bool, String> {
    let report = racecheck::check(seed)?;
    println!(
        "race: seed {:#x}: racy run produced {} finding(s), replay {}",
        report.seed,
        report.racy.len(),
        if report.racy == report.replay {
            "identical (bit-for-bit)".to_string()
        } else {
            format!("DIVERGED ({} finding(s))", report.replay.len())
        }
    );
    println!(
        "race: clean run produced {} finding(s); window runs produced {} \
         (unseparated), {} (gather between), {} (barrier between)",
        report.clean.len(),
        report.window.len(),
        report.window_gather.len(),
        report.window_barrier.len()
    );
    let mut findings = report.racy.clone();
    findings.extend(report.clean.iter().cloned());
    findings.extend(report.window.iter().cloned());
    findings.extend(report.window_gather.iter().cloned());
    findings.extend(report.window_barrier.iter().cloned());
    println!("{}", racecheck::to_json(&findings));
    Ok(report.ok())
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "-h" | "--help" => {
            print!("{USAGE}");
            Ok(true)
        }
        "lint" => cmd_lint(&args[1..]),
        "corpus" => {
            let dir = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| root.join("tests/analyze_corpus"));
            cmd_corpus(&dir)
        }
        "clean" => {
            let dirs: Vec<PathBuf> = if args.len() > 1 {
                args[1..].iter().map(PathBuf::from).collect()
            } else {
                vec![root.join("examples/idl")]
            };
            cmd_clean(&dirs)
        }
        "runtime" => cmd_runtime(),
        "lockcheck" => cmd_lockcheck(),
        "race" => {
            let seed = match args.get(1) {
                Some(s) => {
                    let digits = s.trim_start_matches("0x");
                    u64::from_str_radix(digits, if digits == s { 10 } else { 16 })
                        .map_err(|_| format!("race: bad seed `{s}`"))?
                }
                None => 0x5EED,
            };
            cmd_race(seed)
        }
        "all" => {
            let corpus = cmd_corpus(&root.join("tests/analyze_corpus"))?;
            let clean = cmd_clean(&[root.join("examples/idl")])?;
            let runtime = cmd_runtime()?;
            let locks = cmd_lockcheck()?;
            let race = cmd_race(0x5EED)?;
            Ok(corpus && clean && runtime && locks && race)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pardis-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
