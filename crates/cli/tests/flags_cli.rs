//! The build verbs' option surface, pinned through the real `zr-image`
//! binary: every flag `usage()` lists under BUILD FLAGS is accepted by
//! `build-many`, a flag it does not list is refused, and a context
//! directory that cannot be read fails before any build starts. The
//! `modes:` line lists every `--force` mode, and `build` accepts each.
//! The wire verbs (`push`, `pull`) refuse bad flags with the usage
//! exit.

use std::path::PathBuf;
use std::process::{Command, Output};

use zeroroot_core::Mode;

const BIN: &str = env!("CARGO_BIN_EXE_zr-image");

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let path = std::env::temp_dir().join(format!("zr-cli-flags-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }

    fn join(&self, rel: &str) -> String {
        self.0.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("ZR_FAULT")
        .output()
        .expect("spawn zr-image")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The flags `usage()` lists under BUILD FLAGS, each with the
/// placeholder it documents (`None` for a switch). `--force=MODE` is
/// listed as one token and comes back as `("--force=", Some("MODE"))`.
fn listed_build_flags() -> Vec<(String, Option<String>)> {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "no verb prints usage");
    let text = stderr(&out);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("BUILD FLAGS: "))
        .expect("usage lists BUILD FLAGS");
    line.split('[')
        .filter_map(|group| group.split(']').next())
        .filter(|group| !group.trim().is_empty())
        .map(|group| match group.split_once('=') {
            Some((flag, value)) => (format!("{flag}="), Some(value.to_string())),
            None => {
                let mut words = group.split_whitespace();
                let flag = words.next().expect("flag").to_string();
                (flag, words.next().map(str::to_string))
            }
        })
        .collect()
}

#[test]
fn build_flags_match_usage() {
    let scratch = Scratch::new("surface");
    let df = scratch.join("pin.df");
    std::fs::write(&df, "FROM alpine:3.19\nRUN true\n").unwrap();
    let context = scratch.join("ctx");
    std::fs::create_dir_all(&context).unwrap();
    let flags = listed_build_flags();
    assert!(flags.len() >= 12, "BUILD FLAGS parsed: {flags:?}");
    for (flag, placeholder) in &flags {
        // `ci/wire-e2e.sh` drives --registry against a live endpoint.
        if flag == "--registry" {
            continue;
        }
        let cache_dir = scratch.join(&format!("cache{flag}"));
        let sample = match (flag.as_str(), placeholder.as_deref()) {
            (_, None) => None,
            ("--force=", _) => Some("seccomp"),
            ("--target", _) => Some("0"),
            ("--jobs", _) => Some("2"),
            ("--follow", _) => Some("pin"),
            ("--context", _) => Some(context.as_str()),
            ("--cache-dir", _) => Some(cache_dir.as_str()),
            ("--cache-limit" | "--store-limit", _) => Some("65536"),
            ("--blob-limit", _) => Some("1"),
            ("--retry", _) => Some("2"),
            ("--timeout", _) => Some("5"),
            ("--fault-plan", _) => Some("seed=1"),
            _ => panic!("no sample value for {flag} {placeholder:?}: add one here"),
        };
        let args: Vec<String> = match (flag.strip_suffix('='), sample) {
            (Some(_), Some(value)) => vec![format!("{flag}{value}")],
            (None, Some(value)) => vec![flag.clone(), value.to_string()],
            (_, None) => vec![flag.clone()],
        };
        let mut argv = vec!["build-many"];
        argv.extend(args.iter().map(String::as_str));
        argv.push(&df);
        let out = run(&argv);
        assert_eq!(
            out.status.code(),
            Some(0),
            "build-many {args:?} must be accepted; stderr:\n{}",
            stderr(&out)
        );
    }
    // A flag usage() does not list is a usage error.
    let out = run(&["build-many", "--shards", "4", &df]);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{}", stderr(&out));
}

#[test]
fn usage_lists_every_mode_and_build_accepts_each() {
    let out = run(&[]);
    let text = stderr(&out);
    let listed: Vec<&str> = text
        .lines()
        .find_map(|l| l.strip_prefix("modes: "))
        .expect("usage lists modes")
        .split(' ')
        .collect();
    let flags: Vec<&str> = Mode::ALL.iter().map(|m| m.flag()).collect();
    assert_eq!(listed, flags);

    let scratch = Scratch::new("modes");
    let df = scratch.join("modes.df");
    std::fs::write(&df, "FROM debian:12\nRUN true\n").unwrap();
    for flag in flags {
        let force = format!("--force={flag}");
        let out = run(&["build", &force, "-f", &df]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "build {force} must be accepted; stderr:\n{}",
            stderr(&out)
        );
    }
}

#[test]
fn unreadable_context_dir_fails_before_building() {
    let scratch = Scratch::new("context");
    let df = scratch.join("pin.df");
    std::fs::write(&df, "FROM alpine:3.19\nRUN true\n").unwrap();
    let missing = scratch.join("no-such-dir");
    let output = scratch.join("layout");
    for argv in [
        vec!["build", "--context", &missing, "-f", &df],
        vec!["build", "-f", &df, &missing],
        vec![
            "export",
            "--output",
            &output,
            "--context",
            &missing,
            "-f",
            &df,
        ],
        vec!["build-many", "--context", &missing, &df],
    ] {
        let out = run(&argv);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{argv:?}; stderr:\n{err}");
        assert!(
            err.lines()
                .any(|l| l.starts_with("error:") && l.contains(&missing)),
            "{argv:?}: the error names the directory; stderr:\n{err}"
        );
        assert!(out.stdout.is_empty(), "{argv:?}: no build ran");
        assert!(!err.contains("[sched]"), "{argv:?}: no batch ran");
    }
    assert!(!std::path::Path::new(&output).exists(), "nothing exported");
}

#[test]
fn wire_verbs_refuse_bad_flags_with_usage() {
    let scratch = Scratch::new("wire");
    let dir = scratch.join("layout");
    for (argv, error) in [
        (vec!["push", "--retry", "x", &dir], None),
        (
            vec![
                "pull",
                "--registry",
                "127.0.0.1:1",
                "name:tag",
                &dir,
                "--timeout",
            ],
            None,
        ),
        (
            vec!["push", &dir],
            Some("error: push needs --registry ADDR\n"),
        ),
    ] {
        let out = run(&argv);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{argv:?}; stderr:\n{err}");
        let usage = err.find("usage: zr-image").expect("usage printed");
        // The verb's own error line, when it has one, comes first.
        assert_eq!(&err[..usage], error.unwrap_or(""), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?}: nothing ran");
    }
}
