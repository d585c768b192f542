//! Runs every experiment binary in sequence (quick variants where they
//! exist). Build first: `cargo build --release -p propeller-bench`, then
//! `cargo run --release -p propeller-bench --bin run_all`.

use std::process::Command;

const EXPERIMENTS: &[(&str, &[&str])] = &[
    ("table1_app_overlap", &[]),
    ("fig7_thrift_acg", &[]),
    ("table2_partitioning", &["--quick"]),
    ("fig1_spotlight_recall", &[]),
    ("fig10_mixed_workload", &[]),
    ("table5_spotlight_static", &["--quick"]),
    ("fig11_dynamic_namespace", &["--quick"]),
    ("ablation_partitioning", &[]),
    ("ablation_cache", &[]),
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let mut failures = Vec::new();
    for (name, args) in EXPERIMENTS {
        let path = bin_dir.join(name);
        if !path.exists() {
            eprintln!("[skip] {name}: binary not built ({})", path.display());
            failures.push(*name);
            continue;
        }
        let status = Command::new(&path).args(*args).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("[fail] {name}: {other:?}");
                failures.push(*name);
            }
        }
    }
    println!();
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("{} experiment(s) failed: {failures:?}", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::path::Path;

    use super::EXPERIMENTS;

    #[test]
    fn experiments_list_every_bin_and_nothing_else() {
        let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let on_disk: BTreeSet<String> = std::fs::read_dir(&bin_dir)
            .expect("read src/bin")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|name| name != "run_all")
            .collect();
        let listed: BTreeSet<String> =
            EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect();
        assert_eq!(listed.len(), EXPERIMENTS.len(), "EXPERIMENTS names a bin twice");
        assert_eq!(on_disk, listed);
    }
}
