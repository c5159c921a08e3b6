//! # zr-build — the ch-image-like builder
//!
//! The top of the stack: consume a Dockerfile, pull the base from the
//! registry simulator, materialize a Type III container on the simulated
//! kernel, and drive each instruction through `zr-shell` and the
//! `zr-pkg` package managers — arming the selected [`RootEmulation`]
//! strategy around every `RUN`, exactly where `ch-image build --force`
//! hooks in (Priedhorsky & Randles 2021; Priedhorsky et al., SC 2024).
//!
//! The builder is where the paper's claim becomes end-to-end observable:
//! under `--force=seccomp` a `RUN yum install` against CentOS 7 succeeds
//! because every privileged syscall was intercepted, **executed not at
//! all**, and reported successful.
//!
//! ```
//! use zeroroot_core::Mode;
//! use zr_build::{BuildOptions, Builder};
//! use zr_kernel::Kernel;
//!
//! let mut kernel = Kernel::default_kernel();
//! let mut builder = Builder::new();
//! let result = builder.build(
//!     &mut kernel,
//!     "FROM centos:7\nRUN yum install -y openssh\n",
//!     &BuildOptions::new("win", Mode::Seccomp),
//! );
//! assert!(result.success, "{}", result.log_text());
//! assert!(result.log_text().contains("Complete!"));
//! ```
//!
//! [`RootEmulation`]: zeroroot_core::RootEmulation

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cache;
mod options;
mod result;

pub use builder::{assemble, plan, Builder, StageOutput, Stages};
pub use cache::{CacheMode, CacheStats};
pub use options::{context_file, BuildOptions, ContextFile};
pub use result::{BuildError, BuildResult};
