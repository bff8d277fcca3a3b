//! The one reproduction driver: renders every row of
//! [`volley_bench::TABLES`] and writes it to `<out>/<name>.txt` (default
//! `./reproduction`), so `cargo run -p volley-bench --release --bin
//! reproduce` regenerates the whole deterministic evaluation — the
//! paper's figures, the ablations and the extension experiments — in one
//! command, and fails if an extension row's acceptance gate does not
//! hold.
//!
//! Accepts the sizing flags (`--quick`, `--ticks`, `--tasks`, `--seed`,
//! `--max-interval`) plus `--out <dir>`.

use volley_bench::{BenchArgs, TABLES};

fn main() {
    let BenchArgs { params, out } = BenchArgs::from_env();
    std::fs::create_dir_all(&out).expect("output directory is creatable");
    eprintln!("reproduce: {params:?} -> {}", out.display());
    for table in TABLES {
        let path = out.join(format!("{}.txt", table.name));
        std::fs::write(&path, (table.render)(&params))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {} ({})", path.display(), table.paper_item);
    }
}
