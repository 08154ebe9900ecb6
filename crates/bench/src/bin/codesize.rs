//! Reproduces the §4.1 code-size discussion: lines of Rust per subsystem of
//! this reproduction, next to the paper's C line counts for the HiStar
//! kernel components.

use std::fs;
use std::path::Path;

fn count_lines(dir: &Path) -> (usize, usize) {
    let mut total = 0;
    let mut code = 0;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let (t, c) = count_lines(&path);
                total += t;
                code += c;
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = fs::read_to_string(&path) {
                    for line in text.lines() {
                        total += 1;
                        let trimmed = line.trim();
                        if !trimmed.is_empty() && !trimmed.starts_with("//") {
                            code += 1;
                        }
                    }
                }
            }
        }
    }
    (total, code)
}

fn main() {
    println!("== Code-size inventory (cf. paper §4.1: 15,200 lines of C kernel code) ==");
    println!("{:<28} {:>12} {:>12}", "crate", "total lines", "code lines");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut grand = (0, 0);
    for crate_dir in [
        "crates/label",
        "crates/sim",
        "crates/obs",
        "crates/store",
        "crates/kernel",
        "crates/unix",
        "crates/net",
        "crates/exporter",
        "crates/auth",
        "crates/apps",
        "crates/httpd",
        "crates/baseline",
        "crates/bench",
        "crates/flowcheck",
        "src",
        "examples",
        "tests",
    ] {
        let (total, code) = count_lines(&root.join(crate_dir));
        grand.0 += total;
        grand.1 += code;
        println!("{crate_dir:<28} {total:>12} {code:>12}");
    }
    println!("{:<28} {:>12} {:>12}", "TOTAL", grand.0, grand.1);
    println!();
    println!("Paper kernel breakdown (C): 3,400 arch, 4,000 B+-tree/log/persistence,");
    println!("3,000 device drivers, 4,800 syscalls/containers/misc = 15,200 total;");
    println!("Unix emulation library: ~10,000 lines; wrap: 110 lines;");
    println!("auth services: 58 + 188 + 233 + 370 + 30 lines.");
}
