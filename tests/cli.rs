//! End-to-end tests of the `hka-sim` command-line front end: each
//! subcommand is executed as a real process against the built binary.

use std::process::Command;

fn hka_sim(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn simulate_prints_summary_and_audits() {
    let (ok, stdout, _) = hka_sim(&[
        "simulate",
        "--days",
        "3",
        "--commuters",
        "3",
        "--roamers",
        "20",
        "--k",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("simulated 3 days"));
    assert!(stdout.contains("HK success rate"));
    assert!(stdout.contains("commute: matched="));
}

#[test]
fn plan_reports_verdicts() {
    let (ok, stdout, _) = hka_sim(&["plan", "--population", "60", "--samples", "50"]);
    assert!(ok);
    assert!(stdout.contains("hospital-finder"));
    assert!(stdout.contains("localized-news"));
    assert!(stdout.contains("deploy") || stdout.contains("DO NOT DEPLOY"));
}

#[test]
fn export_then_plan_round_trips() {
    let dir = std::env::temp_dir().join("hka-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.csv");
    let trace_s = trace.to_str().unwrap();
    let (ok, stdout, _) = hka_sim(&["export", "--days", "1", "--out", trace_s]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"));
    let header = std::fs::read_to_string(&trace).unwrap();
    assert!(header.starts_with("# hka-trace v1"));
    let (ok, stdout, _) = hka_sim(&["plan", "--trace", trace_s, "--samples", "50"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("hospital-finder"));
}

#[test]
fn attack_accepts_levels_and_rejects_garbage() {
    let (ok, stdout, _) = hka_sim(&["attack", "--level", "off", "--seed", "2"]);
    assert!(ok);
    assert!(stdout.contains("targets identified"));
    let (ok, _, stderr) = hka_sim(&["attack", "--level", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown level"));
}

#[test]
fn usage_errors_are_reported() {
    let (ok, _, stderr) = hka_sim(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (ok, _, stderr) = hka_sim(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = hka_sim(&["simulate", "--days", "three"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value"));
    let (ok, _, stderr) = hka_sim(&["export"]);
    assert!(!ok);
    assert!(stderr.contains("--out"));
}

#[test]
fn derive_runs_for_commuter_and_roamer() {
    let (ok, stdout, _) = hka_sim(&["derive", "--user", "0", "--days", "5"]);
    assert!(ok);
    // Either outcome is legitimate; the line shapes are fixed.
    assert!(stdout.contains("population") || stdout.contains("no identifying"));
}

#[test]
fn index_backend_is_observationally_invariant() {
    let dir = std::env::temp_dir().join("hka-cli-index-test");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = dir.join("grid.journal");
    let brute = dir.join("brute.journal");
    let grid_s = grid.to_str().unwrap();
    let brute_s = brute.to_str().unwrap();

    let run = |index: &str, out: &str| {
        let (ok, stdout, stderr) = hka_sim(&[
            "simulate",
            "--days",
            "2",
            "--commuters",
            "3",
            "--roamers",
            "20",
            "--shards",
            "4",
            "--index",
            index,
            "--trace-out",
            out,
        ]);
        assert!(ok, "{stderr}");
        stdout
    };
    let grid_stdout = run("grid", grid_s);
    let brute_stdout = run("brute", brute_s);

    // The index backend is a pure query accelerator: switching it must
    // not move a single request between Forwarded and Suppressed, so
    // the journals — which record every per-request decision — match
    // byte for byte, and the summary lines agree.
    assert_eq!(
        std::fs::read(&grid).unwrap(),
        std::fs::read(&brute).unwrap(),
        "grid and brute journals must be byte-identical"
    );
    // Summaries agree too, modulo the line naming the output path.
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains(".journal"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&grid_stdout), strip(&brute_stdout));

    // The brute-backed run passes the full audit on its own merits.
    let (ok, stdout, stderr) = hka_sim(&["audit", "--journal", brute_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("chain: VERIFIED"));
    assert!(stdout.contains("violations: none"));

    // Unknown backends, the removed `rtree` and `soa` included, exit 2
    // naming the two that exist: a usage error, not a silent fallback.
    for gone in ["quadtree", "rtree", "soa"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hka-sim"))
            .args(["simulate", "--days", "1", "--index", gone])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--index {gone}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown index backend"), "{stderr}");
        assert!(stderr.contains("grid|brute"), "{stderr}");
    }
}

#[test]
fn incremental_index_is_observationally_invariant() {
    let dir = std::env::temp_dir().join("hka-cli-union-test");
    std::fs::create_dir_all(&dir).unwrap();
    let on = dir.join("union-on.journal");
    let off = dir.join("union-off.journal");
    let on_s = on.to_str().unwrap();
    let off_s = off.to_str().unwrap();

    let base = [
        "simulate",
        "--days",
        "2",
        "--commuters",
        "3",
        "--roamers",
        "20",
        "--shards",
        "4",
        "--trace-out",
    ];
    let (ok, on_stdout, stderr) = hka_sim(&[&base[..], &[on_s]].concat());
    assert!(ok, "{stderr}");
    let (ok, off_stdout, stderr) =
        hka_sim(&[&base[..], &[off_s, "--no-incremental-index"]].concat());
    assert!(ok, "{stderr}");

    // The incremental union is a pure query accelerator on the
    // protected-request path: turning it off (per-request re-union of
    // the shard indexes) must not move a single decision, so the two
    // journals match byte for byte.
    assert_eq!(
        std::fs::read(&on).unwrap(),
        std::fs::read(&off).unwrap(),
        "union-on and union-off journals must be byte-identical"
    );
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains(".journal"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&on_stdout), strip(&off_stdout));

    // And the optimized journal audits clean end to end.
    let (ok, stdout, stderr) = hka_sim(&["audit", "--journal", on_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("chain: VERIFIED"));
    assert!(stdout.contains("violations: none"));
}

#[test]
fn simulate_then_audit_round_trips() {
    let dir = std::env::temp_dir().join("hka-cli-audit-test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("ts.journal");
    let journal_s = journal.to_str().unwrap();
    let report = dir.join("audit.json");
    let report_s = report.to_str().unwrap();

    let (ok, _, stderr) = hka_sim(&[
        "simulate",
        "--days",
        "2",
        "--commuters",
        "3",
        "--roamers",
        "20",
        "--trace-out",
        journal_s,
    ]);
    assert!(ok, "{stderr}");

    // A clean run audits clean, writes the canonical JSON report, and
    // exits 0.
    let (ok, stdout, stderr) = hka_sim(&["audit", "--journal", journal_s, "--json", report_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("chain: VERIFIED"));
    assert!(stdout.contains("violations: none"));
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"trade_off\""));
    assert!(json.contains("\"k_timeline\""));

    // Tampering with the journal fails the audit.
    let text = std::fs::read_to_string(&journal).unwrap();
    let tampered_path = dir.join("tampered.journal");
    std::fs::write(&tampered_path, text.replacen("\"user\":", "\"USER\":", 1)).unwrap();
    let (ok, stdout, _) = hka_sim(&["audit", "--journal", tampered_path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("chain: FAILED"));

    // Missing flag is a usage error.
    let (ok, _, stderr) = hka_sim(&["audit"]);
    assert!(!ok);
    assert!(stderr.contains("--journal"));
}
