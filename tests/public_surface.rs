//! Pins the workspace's public surface. The facade re-exports every
//! crate, so rustc's `dead_code` lint never sees a `pub` item; this scan
//! stands in for it. Each `pub fn` (including `pub const fn`), `pub const`,
//! `pub static` and `pub trait` that a crate declares in its library
//! sources (`src/` outside `src/bin/`) must be named by some file outside
//! that directory: another crate, one of the crate's own binaries or
//! integration tests, an example, a file under `tests/` or `perfbench/`,
//! or the facade prelude. An item that only its own crate uses belongs at
//! `pub(crate)`, where the compiler flags it once its last caller goes. A
//! doc example in the crate's own sources does not count as a user.
//!
//! Traits are in scope: another crate that implements a trait, calls its
//! methods or bounds a generic by it has to name it (directly or through
//! the facade prelude), so a trait named nowhere outside its crate is one
//! nothing else can use. Types and fields are out of scope: a kept public
//! signature can hand out a type that nothing outside its crate names,
//! and that type must stay `pub` all the same.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping `shims/` and `target/`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if !path.ends_with("shims") && !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers of `text`, in order: maximal runs of ASCII
/// alphanumerics and `_` that do not start with a digit.
fn identifiers(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| word.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .collect()
}

/// The names that `words` declares as `pub fn`, `pub const fn`,
/// `pub const`, `pub static` or `pub trait`. A restricted `pub(crate)`
/// splits into `pub crate`, so it never matches.
fn public_items<'a>(words: &[&'a str]) -> Vec<&'a str> {
    let mut items = Vec::new();
    for (i, &word) in words.iter().enumerate() {
        if word != "pub" {
            continue;
        }
        let item = match &words[i + 1..] {
            ["const", "fn", name, ..] | ["fn", name, ..] => name,
            ["const", name, ..] | ["static", name, ..] | ["trait", name, ..] => name,
            _ => continue,
        };
        items.push(*item);
    }
    items
}

/// The library directory `crates/<name>/src` that `path` belongs to, or
/// `None` for a binary under `src/bin/`, an integration test and every
/// file outside `crates/`.
fn library_dir(root: &Path, path: &Path) -> Option<PathBuf> {
    let crates = root.join("crates");
    let krate = path.strip_prefix(&crates).ok()?.components().next()?;
    let src = crates.join(krate).join("src");
    (path.starts_with(&src) && !path.starts_with(src.join("bin"))).then_some(src)
}

#[test]
fn every_public_item_has_a_user_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    for dir in ["crates", "examples", "tests", "perfbench"] {
        rust_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    let texts: Vec<String> = paths
        .iter()
        .map(|path| fs::read_to_string(path).expect("readable source file"))
        .collect();
    // (the library directory a file belongs to, its path, its identifiers)
    let files: Vec<(Option<PathBuf>, &PathBuf, Vec<&str>)> = paths
        .iter()
        .zip(&texts)
        .map(|(path, text)| (library_dir(&root, path), path, identifiers(text)))
        .collect();
    let mut libraries: Vec<&PathBuf> = files
        .iter()
        .filter_map(|(lib, _, _)| lib.as_ref())
        .collect();
    libraries.dedup();
    assert!(!libraries.is_empty(), "no crate sources under {root:?}");

    let mut offenders = Vec::new();
    for lib in libraries {
        let named_outside: HashSet<&str> = files
            .iter()
            .filter(|(owner, _, _)| owner.as_ref() != Some(lib))
            .flat_map(|(_, _, words)| words.iter().copied())
            .collect();
        // An item name declared in several files of one crate is one
        // offender, listed with each file that declares it.
        let mut unused: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for (_, path, words) in files
            .iter()
            .filter(|(owner, _, _)| owner.as_ref() == Some(lib))
        {
            let shown = path
                .strip_prefix(&root)
                .unwrap_or(path)
                .display()
                .to_string();
            for item in public_items(words) {
                if !named_outside.contains(item) {
                    unused.entry(item).or_default().push(shown.clone());
                }
            }
        }
        for (item, mut declared_in) in unused {
            declared_in.dedup();
            offenders.push(format!("{}: {item}", declared_in.join(", ")));
        }
    }
    assert!(
        offenders.is_empty(),
        "{} public items are named nowhere outside their crate's src/; \
         narrow them to pub(crate) or private:\n  {}",
        offenders.len(),
        offenders.join("\n  ")
    );
}
