//! Byte-identity pins for `--report-json`: each deterministic
//! invocation below runs in-process and its stdout is hashed; the
//! digests were captured at commit `f00fe91`, before the flag-table and
//! run-harness refactor, so "the refactor moved no report byte" is an
//! executable claim. After an *intended* report change, rerun with
//! `--nocapture`, read the new digests off the failure message and
//! update them here.

/// 64-bit FNV-1a over the output bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs one command line in-process and returns its stdout.
fn volley(argv: &[&str]) -> String {
    let command = volley_cli::Command::parse(argv.iter().map(|s| s.to_string()))
        .unwrap_or_else(|err| panic!("{argv:?} must parse: {err}"));
    let mut out = Vec::new();
    volley_cli::run(command, &mut out).unwrap_or_else(|err| panic!("{argv:?} must run: {err}"));
    String::from_utf8(out).expect("utf8 report")
}

/// A scratch path unique to this test binary run.
fn scratch(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("volley-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

fn assert_digest(what: &str, output: &str, expected: u64) {
    assert_eq!(
        fnv(output.as_bytes()),
        expected,
        "{what}: report bytes moved (digest now {:#018x}):\n{output}",
        fnv(output.as_bytes())
    );
}

#[test]
fn generate_then_monitor_report_is_pinned() {
    let csv = volley(&[
        "generate", "--family", "network", "--ticks", "800", "--tasks", "1", "--seed", "5",
    ]);
    assert_digest("generate", &csv, 0x9610_6438_26fd_36ca);
    let trace = scratch("trace.csv");
    let body: String = csv.lines().skip(1).map(|l| format!("{l}\n")).collect();
    std::fs::write(&trace, body).expect("write trace");
    let monitor = |extra: &[&str]| {
        let mut argv = vec![
            "monitor",
            "--input",
            &trace,
            "--percentile",
            "1",
            "--err",
            "0.02",
            "--max-interval",
            "8",
            "--report-json",
        ];
        argv.extend_from_slice(extra);
        volley(&argv)
    };
    assert_digest("monitor", &monitor(&[]), 0xe75c_d4b1_63ee_b89a);
    // Captured at commit `e277774`, while `--below` still ran through a
    // dedicated condition sampler rather than a sign flip.
    assert_digest(
        "monitor --below",
        &monitor(&["--below"]),
        0xb6c8_977b_fa72_eb87,
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn sim_report_is_pinned() {
    let report = volley(&[
        "sim",
        "--servers",
        "2",
        "--vms",
        "8",
        "--ticks",
        "120",
        "--seed",
        "5",
        "--threads",
        "1",
        "--report-json",
    ]);
    // Captured at commit `8a7c8c3`, before the three per-family scenario
    // types became one `Scenario`.
    assert_digest("sim", &report, 0xe6b3_9357_211a_5add);
}

#[test]
fn chaos_crash_and_stall_report_is_pinned() {
    // In process nothing waits on the host: only the planted crash and
    // stall miss.
    let report = volley(&[
        "chaos",
        "--monitors",
        "5",
        "--ticks",
        "150",
        "--seed",
        "42",
        "--crash",
        "1@40",
        "--stall",
        "3@20+50",
        "--report-json",
    ]);
    assert_digest("chaos", &report, 0x3b79_00b8_b11e_83b5);
}

#[test]
fn chaos_multitask_report_is_pinned() {
    let report = volley(&[
        "chaos",
        "--multitask",
        "4",
        "--ticks",
        "600",
        "--train-ticks",
        "200",
        "--seed",
        "42",
        "--report-json",
    ]);
    assert_digest("chaos --multitask", &report, 0x5a1c_fec7_b5c6_c9a4);
}

#[test]
fn recorded_store_reports_are_pinned() {
    let store = scratch("store");
    // Reports echo the store path; hash them with it normalised.
    let pinned = |what: &str, argv: &[&str], expected: u64| {
        let report = volley(argv).replace(&store, "<store>");
        assert_digest(what, &report, expected);
    };
    pinned(
        "chaos --store-dir",
        &[
            "chaos",
            "--monitors",
            "5",
            "--ticks",
            "150",
            "--seed",
            "42",
            "--store-dir",
            &store,
            "--report-json",
        ],
        0x6a46_f839_5953_1249,
    );
    pinned(
        "store query",
        &["store", "query", "--store-dir", &store, "--report-json"],
        0xad8c_fa79_7091_7fd5,
    );
    pinned(
        "backtest --verify",
        &[
            "backtest",
            "--store-dir",
            &store,
            "--err",
            "0.01",
            "--err",
            "0.05",
            "--verify",
            "--report-json",
        ],
        0x0996_b925_49f5_2410,
    );
    pinned(
        "analyze correlate",
        &[
            "analyze",
            "correlate",
            "--store-dir",
            &store,
            "--top-k",
            "5",
            "--lag",
            "2",
            "--report-json",
        ],
        0x31ff_144a_d5e1_2265,
    );
    let _ = std::fs::remove_dir_all(&store);
}
