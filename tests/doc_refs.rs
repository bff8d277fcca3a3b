//! Drift guard for the current-state documents: `DESIGN.md`,
//! `README.md`, `docs/API.md`, `docs/ALGORITHMS.md`, `EXPERIMENTS.md`
//! and `vendor/README.md` may only name what exists.
//!
//! Checked in inline code spans and link targets (fenced blocks are
//! examples, compiled or driven elsewhere):
//! - a repo path (first component a top-level entry of the repo, a
//!   `:line` suffix allowed) must exist, and a `file.rs::name` suffix
//!   must name something in that file;
//! - every segment of a `a::b` path must occur somewhere in the sources
//!   under `crates/`, `src/` or `vendor/`;
//! - a relative link must resolve from the document's directory.
//!
//! And a `DESIGN.md §N` (or `DESIGN §N`) citation in the documents,
//! `ROADMAP.md` or a source file under `crates/` must name a `## N.`
//! heading of `DESIGN.md`.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 6] = [
    "DESIGN.md",
    "README.md",
    "docs/API.md",
    "docs/ALGORITHMS.md",
    "EXPERIMENTS.md",
    "vendor/README.md",
];
const CITING: [&str; 4] = ["README.md", "docs/API.md", "EXPERIMENTS.md", "ROADMAP.md"];
const SOURCES: [&str; 3] = ["crates", "src", "vendor"];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The `.rs` and `.toml` files under `dir`, skipping build output.
fn source_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                source_files(&path, files);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            files.push(path);
        }
    }
}

/// Every identifier-like word in the source files under `dir`.
fn collect_words(dir: &Path, words: &mut HashSet<String>) {
    let mut files = Vec::new();
    source_files(dir, &mut files);
    for path in files {
        let text = fs::read_to_string(&path).expect("readable source");
        words.extend(
            text.split(|c: char| !is_ident_char(c))
                .filter(|w| !w.is_empty())
                .map(str::to_owned),
        );
    }
}

/// The problems with one inline code span.
fn check_span(
    span: &str,
    root: &Path,
    tops: &HashSet<String>,
    words: &HashSet<String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    // Repo paths, with an optional `:line` or `::item` suffix.
    let path_char = |c: char| is_ident_char(c) || "./-:{},*<>…".contains(c);
    for token in span.split(|c: char| !path_char(c)) {
        let token = token.trim_end_matches(['.', ',', ':']);
        let Some((first, _)) = token.split_once('/') else {
            continue;
        };
        if !tops.contains(first) || first == "target" || token.contains(['{', '*', '<', '…']) {
            continue;
        }
        let (file, items) = token.split_once("::").unwrap_or((token, ""));
        let file = file.split(':').next().unwrap_or(file);
        let path = root.join(file);
        if !path.exists() {
            problems.push(format!("path `{file}` does not exist"));
            continue;
        }
        if !items.is_empty() {
            let text = fs::read_to_string(&path).unwrap_or_default();
            for item in items.split("::") {
                let item = item.trim_end_matches('*');
                if !text.contains(item) {
                    problems.push(format!("`{item}` is not in `{file}`"));
                }
            }
        }
    }
    // `a::b` paths: runs of identifier characters and colons.
    let chars: Vec<char> = span.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if !(is_ident_char(chars[i]) || chars[i] == ':') {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && (is_ident_char(chars[i]) || chars[i] == ':') {
            i += 1;
        }
        let run: String = chars[start..i].iter().collect();
        // `file.rs::item` was checked above; `a::b{c,d}` / `a::b*` end in
        // a prefix, not a segment.
        let qualified_file = start > 0 && chars[start - 1] == '.';
        if !run.contains("::") || qualified_file {
            continue;
        }
        let prefix_end = chars.get(i).is_some_and(|c| *c == '{' || *c == '*');
        let segments: Vec<&str> = run.split("::").filter(|s| !s.is_empty()).collect();
        let checked = if prefix_end {
            &segments[..segments.len().saturating_sub(1)]
        } else {
            &segments[..]
        };
        for segment in checked {
            let is_ident = segment.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
            if is_ident && !words.contains(*segment) {
                problems.push(format!(
                    "`{run}`: `{segment}` occurs nowhere in the sources"
                ));
            }
        }
    }
    problems
}

#[test]
fn documents_name_only_what_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut words = HashSet::new();
    for dir in SOURCES {
        collect_words(&root.join(dir), &mut words);
    }
    let tops: HashSet<String> = fs::read_dir(&root)
        .expect("readable repo root")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();

    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("readable document");
        let dir = root.join(doc).parent().expect("document dir").to_path_buf();
        let mut fenced = false;
        for (number, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            let mut found = Vec::new();
            for span in line.split('`').skip(1).step_by(2) {
                found.extend(check_span(span, &root, &tops, &words));
            }
            for link in line.split("](").skip(1) {
                let target = link.split([')', ' ']).next().unwrap_or_default();
                let target = target.split('#').next().unwrap_or_default();
                if target.is_empty() || target.contains("://") || target.starts_with("mailto:") {
                    continue;
                }
                if !dir.join(target).exists() {
                    found.push(format!("link `{target}` does not resolve"));
                }
            }
            problems.extend(
                found
                    .into_iter()
                    .map(|p| format!("{doc}:{}: {p}", number + 1)),
            );
        }
    }
    assert!(
        problems.is_empty(),
        "documents name what does not exist:\n{}",
        problems.join("\n")
    );
}

/// Every `(line, section)` a `DESIGN.md §N` / `DESIGN §N` citation in
/// `text` names; a backtick may close `DESIGN.md` before the `§`.
fn design_citations(text: &str) -> Vec<(usize, u32)> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = &text[at + "DESIGN".len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let rest = rest.strip_prefix('`').unwrap_or(rest);
        let Some(rest) = rest.trim_start().strip_prefix('§') else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(section) = digits.parse() {
            out.push((text[..at].matches('\n').count() + 1, section));
        }
    }
    out
}

#[test]
fn design_section_citations_name_existing_headings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("readable DESIGN.md");
    let headings: HashSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|l| l.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect();

    let mut citing: Vec<PathBuf> = CITING.iter().map(|d| root.join(d)).collect();
    let mut sources = Vec::new();
    source_files(&root.join("crates"), &mut sources);
    citing.extend(
        sources
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs")),
    );
    let mut problems = Vec::new();
    for path in citing {
        let text = fs::read_to_string(&path).expect("readable citing file");
        for (line, section) in design_citations(&text) {
            if !headings.contains(&section) {
                let name = path.strip_prefix(&root).unwrap_or(&path).display();
                problems.push(format!(
                    "{name}:{line}: DESIGN §{section} has no `## {section}.` heading"
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "citations of DESIGN.md sections that do not exist:\n{}",
        problems.join("\n")
    );
}
