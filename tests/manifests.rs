//! Drift guard for the manifests: every dependency edge is used, and
//! every vendored stand-in is reached.
//!
//! - every `[dependencies]` / `[dev-dependencies]` edge of
//!   `crates/*/Cargo.toml` and of the root manifest is named in that
//!   package's `src/`, `tests/`, `benches/` or `examples/` (as `name::`,
//!   `name!` or `use name`);
//! - every `[workspace.dependencies]` path into `vendor/` is a
//!   dependency of some workspace member;
//! - every `vendor/*` directory is a `[workspace.dependencies]` path or
//!   a path dependency of a listed vendored crate, and has a row in
//!   `vendor/README.md`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The one package whose manifest keeps edges no source names:
/// `(package, dependencies, reason)`.
const ALLOWED_UNUSED: (&str, [&str; 2], &str) = (
    "volley-runtime",
    ["rand", "crossbeam"],
    // `benchmark/` builds volley-runtime from its own frozen lock file;
    // dropping either edge rewrites `benchmark/Cargo.lock` (`cargo
    // metadata --locked` then fails), so both go with its next refresh.
    "dropping it rewrites the frozen benchmark/Cargo.lock",
);

/// One dependency table entry: `(section, name, path)`; `path` is the
/// `path = "…"` value when the entry spells one.
type Entry = (String, String, Option<String>);

/// The dependency entries of a manifest, in order. A line-based reader
/// is enough for the flat tables these manifests use.
fn entries(manifest: &Path) -> Vec<Entry> {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').to_owned();
            continue;
        }
        if !section.ends_with("dependencies") || line.is_empty() {
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or_default().trim();
        let path = line
            .split_once("path = \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map(|(path, _)| path.to_owned());
        out.push((section.clone(), key.to_owned(), path));
    }
    out
}

/// The `[package] name` of a manifest.
fn package_name(manifest: &Path) -> String {
    let text = fs::read_to_string(manifest).expect("readable manifest");
    let package = text.split("[package]").nth(1).expect("a [package] table");
    package
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = \""))
        .and_then(|rest| rest.split_once('"'))
        .map(|(name, _)| name.to_owned())
        .expect("a package name")
}

/// Appends the text of every `.rs` file under `dir` to `text`.
fn read_sources(dir: &Path, text: &mut String) {
    let Ok(read) = fs::read_dir(dir) else {
        return;
    };
    for entry in read {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            read_sources(&path, text);
        } else if path.extension().is_some_and(|e| e == "rs") {
            text.push_str(&fs::read_to_string(&path).expect("readable source"));
            text.push('\n');
        }
    }
}

/// The sources of the package in `dir`: its `src/`, `tests/`,
/// `benches/` and `examples/`.
fn package_sources(dir: &Path) -> String {
    let mut text = String::new();
    for sub in ["src", "tests", "benches", "examples"] {
        read_sources(&dir.join(sub), &mut text);
    }
    text
}

/// Whether `text` names the crate `ident` as `ident::`, `ident!` or
/// `use ident`, with no identifier character just before it.
fn names_crate(text: &str, ident: &str) -> bool {
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = &text[at + ident.len()..];
        let whole = !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        whole
            && (after.starts_with("::")
                || after.starts_with('!')
                || (text[..at].ends_with("use ")
                    && after.starts_with(|c: char| !c.is_ascii_alphanumeric() && c != '_')))
    })
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest and every `crates/*/Cargo.toml`, each with its
/// package directory.
fn packages() -> Vec<(PathBuf, PathBuf)> {
    let root = root();
    let mut out = vec![(root.join("Cargo.toml"), root.clone())];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("readable crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    out.extend(crates.into_iter().map(|dir| (dir.join("Cargo.toml"), dir)));
    out
}

#[test]
fn every_dependency_edge_is_named_in_its_package() {
    let mut problems = Vec::new();
    for (manifest, dir) in packages() {
        let package = package_name(&manifest);
        let text = package_sources(&dir);
        for (section, name, _) in entries(&manifest) {
            if section != "dependencies" && section != "dev-dependencies" {
                continue;
            }
            let (allowed_package, allowed_deps, _) = ALLOWED_UNUSED;
            let allowed = package == allowed_package && allowed_deps.contains(&name.as_str());
            if !allowed && !names_crate(&text, &name.replace('-', "_")) {
                problems.push(format!("{package}: [{section}] `{name}` is never named"));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "dependency edges no source uses:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_allow_list_holds_only_unused_edges() {
    let (package, deps, reason) = ALLOWED_UNUSED;
    let (manifest, dir) = packages()
        .into_iter()
        .find(|(m, _)| package_name(m) == package)
        .expect("allow-listed package exists");
    let text = package_sources(&dir);
    for dep in deps {
        assert!(
            entries(&manifest).iter().any(|(_, name, _)| name == dep),
            "{package} no longer depends on `{dep}`: drop its allow-list entry ({reason})"
        );
        assert!(
            !names_crate(&text, dep),
            "{package} now uses `{dep}`: drop its allow-list entry ({reason})"
        );
    }
}

#[test]
fn every_vendored_crate_is_listed_and_used() {
    let root = root();
    let dir_name = |path: &str| {
        let name = Path::new(path)
            .file_name()
            .expect("a path with a last component");
        name.to_string_lossy().into_owned()
    };
    // `(name, vendor/<dir>)` of every vendored `[workspace.dependencies]` row.
    let listed: Vec<(String, String)> = entries(&root.join("Cargo.toml"))
        .into_iter()
        .filter(|(section, _, _)| section == "workspace.dependencies")
        .filter_map(|(_, name, path)| Some((name, path?)))
        .filter(|(_, path)| path.starts_with("vendor/"))
        .collect();
    let mut vendor_dirs: Vec<String> = fs::read_dir(root.join("vendor"))
        .expect("readable vendor/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| dir_name(&p.to_string_lossy()))
        .collect();
    vendor_dirs.sort();

    // Dependency names of every workspace member (vendored crates are
    // members too), and the vendored directories a vendored crate's
    // path dependency reaches.
    let mut used = BTreeSet::new();
    let mut reached = BTreeSet::new();
    for (manifest, _) in packages() {
        for (section, name, _) in entries(&manifest) {
            if section == "dependencies" || section == "dev-dependencies" {
                used.insert(name);
            }
        }
    }
    for dir in &vendor_dirs {
        for (section, name, path) in entries(&root.join("vendor").join(dir).join("Cargo.toml")) {
            if section.ends_with("dependencies") {
                used.insert(name);
                reached.extend(path.as_deref().map(dir_name));
            }
        }
    }

    let readme = fs::read_to_string(root.join("vendor/README.md")).expect("vendor/README.md");
    let mut problems = Vec::new();
    for (name, path) in &listed {
        if !used.contains(name) {
            problems.push(format!(
                "[workspace.dependencies] `{name}` ({path}) is used by no member"
            ));
        }
    }
    for dir in &vendor_dirs {
        let is_listed = listed.iter().any(|(_, path)| dir_name(path) == *dir);
        if !is_listed && !reached.contains(dir) {
            problems.push(format!(
                "vendor/{dir} is not listed in [workspace.dependencies]"
            ));
        }
        if !readme.contains(&format!("| `{dir}` |")) {
            problems.push(format!("vendor/{dir} has no row in vendor/README.md"));
        }
    }
    assert!(
        problems.is_empty(),
        "vendored crates out of step with the manifests:\n{}",
        problems.join("\n")
    );
}
