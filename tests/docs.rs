//! The design documents stay true to the tree and within their budgets.
//!
//! `ARCHITECTURE.md` and `README.md` name repository paths and cite tests
//! as `path::fn_name`; each must exist. The two documents stay short
//! enough to read (600 and 250 lines), name no pull-request numbers (their
//! history lives in `CHANGES.md`), and every `CHANGES.md` line fits in 80
//! columns unless it is a single token.

use std::fs;
use std::path::Path;

const ARCHITECTURE_MAX_LINES: usize = 600;
const README_MAX_LINES: usize = 250;
const CHANGES_MAX_COLUMNS: usize = 80;
const PATH_ROOTS: [&str; 4] = ["crates/", "tests/", "src/", "examples/"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Expands one `{a,b}` group: `crates/shims/{rand,proptest}` names two
/// paths.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// A path starts at one of [`PATH_ROOTS`] where no path character comes
/// before it (so `crates/x/src/` is one path, not two), runs over path
/// characters and one brace group, and loses trailing dots (prose).
/// Returns each path with the `::fn_name` that follows it, if any.
fn cited_paths(text: &str) -> Vec<(String, Option<String>)> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut found = Vec::new();
    for (start, _) in text.char_indices() {
        let rest = &text[start..];
        if !PATH_ROOTS.iter().any(|r| rest.starts_with(r)) {
            continue;
        }
        if text[..start].chars().next_back().is_some_and(is_path_char) {
            continue;
        }
        let mut end = 0;
        let mut in_braces = false;
        for c in rest.chars() {
            match c {
                '{' if !in_braces => in_braces = true,
                '}' if in_braces => in_braces = false,
                ',' if in_braces => {}
                c if is_path_char(c) => {}
                _ => break,
            }
            end += c.len_utf8();
        }
        let path = rest[..end].trim_end_matches('.');
        let after = &rest[path.len()..];
        let func = after.strip_prefix("::").map(|f| {
            f.chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect::<String>()
        });
        found.push((path.to_string(), func));
    }
    found
}

/// Relative link targets of `[text](target)`, anchors and URLs excluded.
fn link_targets(text: &str) -> Vec<String> {
    text.match_indices("](")
        .filter_map(|(i, _)| {
            let rest = &text[i + 2..];
            let target = &rest[..rest.find(')')?];
            let target = target.split('#').next().unwrap_or("");
            (!target.is_empty() && !target.contains("://")).then(|| target.to_string())
        })
        .collect()
}

fn check_names(doc: &str) -> Vec<String> {
    let text = read(doc);
    let mut errors = Vec::new();
    for (path, func) in cited_paths(&text) {
        for path in expand_braces(&path) {
            let file = root().join(&path);
            if !file.exists() {
                errors.push(format!("{doc}: `{path}` does not exist"));
                continue;
            }
            let Some(func) = &func else { continue };
            let source = fs::read_to_string(&file).unwrap_or_default();
            let defined = source.match_indices(&format!("fn {func}")).any(|(i, m)| {
                !source[i + m.len()..].starts_with(|c: char| c == '_' || c.is_ascii_alphanumeric())
            });
            if !defined {
                errors.push(format!("{doc}: `{path}` has no `fn {func}`"));
            }
        }
    }
    for target in link_targets(&text) {
        if !root().join(&target).exists() {
            errors.push(format!("{doc}: link target `{target}` does not exist"));
        }
    }
    errors
}

/// `PR` followed by a space and a digit: a pull-request number.
fn pr_numbers(text: &str) -> Vec<usize> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            line.match_indices("PR ")
                .any(|(i, m)| line[i + m.len()..].starts_with(|c: char| c.is_ascii_digit()))
        })
        .map(|(n, _)| n + 1)
        .collect()
}

#[test]
fn architecture_names_only_what_exists() {
    let errors = check_names("ARCHITECTURE.md");
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    let cited = cited_paths(&read("ARCHITECTURE.md"))
        .into_iter()
        .filter(|(_, func)| func.is_some())
        .count();
    assert!(cited > 0, "ARCHITECTURE.md cites no `path::fn_name`");
}

#[test]
fn readme_names_only_what_exists() {
    let errors = check_names("README.md");
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn design_documents_stay_within_their_budgets() {
    for (doc, max) in [
        ("ARCHITECTURE.md", ARCHITECTURE_MAX_LINES),
        ("README.md", README_MAX_LINES),
    ] {
        let lines = read(doc).lines().count();
        assert!(lines <= max, "{doc} has {lines} lines, over its {max}");
    }
}

#[test]
fn design_documents_name_no_pull_requests() {
    for doc in ["ARCHITECTURE.md", "README.md"] {
        let lines = pr_numbers(&read(doc));
        assert!(
            lines.is_empty(),
            "{doc} names a PR number on lines {lines:?}"
        );
    }
}

#[test]
fn changes_lines_fit_in_80_columns() {
    let wide: Vec<String> = read("CHANGES.md")
        .lines()
        .enumerate()
        .filter(|(_, line)| {
            line.chars().count() > CHANGES_MAX_COLUMNS && line.split_whitespace().count() > 1
        })
        .map(|(n, line)| format!("line {}: {} columns", n + 1, line.chars().count()))
        .collect();
    assert!(
        wide.is_empty(),
        "CHANGES.md lines over 80 columns:\n{}",
        wide.join("\n")
    );
}

#[test]
fn the_scanner_finds_paths_functions_and_links() {
    let text = "see `crates/x/src/a.rs::f_1`, crates/shims/{r,p}. and [d](ROADMAP.md#x) \
                smvbench/src/b.rs";
    assert_eq!(
        cited_paths(text),
        vec![
            ("crates/x/src/a.rs".to_string(), Some("f_1".to_string())),
            ("crates/shims/{r,p}".to_string(), None),
        ]
    );
    assert_eq!(
        expand_braces("crates/shims/{r,p}"),
        ["crates/shims/r", "crates/shims/p"]
    );
    assert_eq!(link_targets(text), ["ROADMAP.md"]);
    assert_eq!(pr_numbers("a PR 5 b\nPR x\nPRs 1"), [1]);
}
