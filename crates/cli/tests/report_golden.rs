//! Byte-identity pins for `--report-json`: each deterministic
//! invocation below runs in-process and its stdout is hashed. The
//! digests were first captured at commit `f00fe91`, before the
//! flag-table and run-harness refactor, so "the refactor moved no report
//! byte" is an executable claim; they were re-pinned at report schema 8,
//! where every report moved only in its `schema` number and the keys the
//! schema dropped. After an *intended* report change, rerun with
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
    assert_digest("monitor", &monitor(&[]), 0x0934_32f5_2524_58a7);
    // Equal, up to the schema-8 re-pin, to the report captured at commit
    // `e277774`, while `--below` still ran through a dedicated condition
    // sampler rather than a sign flip.
    assert_digest(
        "monitor --below",
        &monitor(&["--below"]),
        0x6f2c_f153_9eb0_bd96,
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
    // Equal, up to the schema-8 re-pin, to the report captured at commit
    // `8a7c8c3`, before the three per-family scenario types became one
    // `Scenario`.
    assert_digest("sim", &report, 0x4b33_fbb0_6528_d095);
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
    assert_digest("chaos", &report, 0xd11c_d950_3e0d_bc3b);
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
    assert_digest("chaos --multitask", &report, 0x16fe_db2d_d601_9deb);
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
        0x56ef_1123_e15a_23ef,
    );
    // The store also holds the run's obs snapshots, whose latencies no
    // digest can pin: the query is pinned one monitoring kind at a time.
    for (kind, expected) in [
        ("sample", 0xbb43_5483_4991_9def),
        ("poll", 0x8b75_68ef_cb05_d89c),
        ("alert", 0x66cb_6e32_3086_19cc),
        ("interval", 0xaee4_91e2_ea10_f3db),
    ] {
        pinned(
            &format!("store query --kind {kind}"),
            &[
                "store",
                "query",
                "--store-dir",
                &store,
                "--kind",
                kind,
                "--report-json",
            ],
            expected,
        );
    }
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
        0x2afb_d3bd_c471_01e1,
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
        0xdcb7_63b6_bba5_8d3c,
    );
    let _ = std::fs::remove_dir_all(&store);
}
