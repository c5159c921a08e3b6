//! Build configuration (`ch-image build`'s flag surface).

use std::sync::Arc;

use crate::cache::CacheMode;
use zeroroot_core::Mode;
use zr_kernel::ContainerType;
use zr_vfs::Blob;

/// One build-context file: its name and its shared contents. The blob
/// memoizes its own SHA-256, so COPY/ADD context digests hash each
/// file once per blob — across instructions *and* across builds
/// sharing the same context vector.
pub type ContextFile = (String, Arc<Blob>);

/// Wrap raw bytes as a [`ContextFile`] (the common construction in
/// tests and CLI loading).
pub fn context_file(name: &str, data: Vec<u8>) -> ContextFile {
    (name.to_string(), Blob::new(data))
}

/// Options for one build, mirroring `ch-image build -t TAG --force=MODE`.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Destination tag (`-t`), applied to the target stage's image.
    pub tag: String,
    /// Root-emulation strategy for RUN instructions (`--force=`).
    pub force: Mode,
    /// Layer-cache policy (`--no-cache` maps to
    /// [`CacheMode::Disabled`]).
    pub cache: CacheMode,
    /// Build context: flat (file name, shared contents) pairs COPY/ADD
    /// read.
    pub context: Vec<ContextFile>,
    /// Container type RUN instructions execute in. The paper's setting —
    /// and the only type an unprivileged builder can set up — is
    /// [`ContainerType::TypeIII`].
    pub container_type: ContainerType,
    /// `--build-arg NAME=VALUE` pairs overriding ARG defaults.
    pub build_args: Vec<(String, String)>,
    /// Host libc identity, checked by bind-mounted emulators
    /// (`--force=fakeroot-bind`).
    pub host_libc: String,
    /// `--target STAGE`: stop at this stage (alias or 0-based index)
    /// instead of the last one; stages the target does not consume are
    /// pruned. `None` builds the final stage.
    pub target: Option<String>,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            tag: "img".into(),
            force: Mode::None,
            cache: CacheMode::Enabled,
            context: Vec::new(),
            container_type: ContainerType::TypeIII,
            build_args: Vec::new(),
            host_libc: "glibc-2.36".into(),
            target: None,
        }
    }
}

impl BuildOptions {
    /// Options with a tag and a `--force` mode; everything else default.
    pub fn new(tag: &str, force: Mode) -> BuildOptions {
        BuildOptions {
            tag: tag.into(),
            force,
            ..BuildOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_tag_and_mode() {
        let o = BuildOptions::new("win", Mode::Seccomp);
        assert_eq!(o.tag, "win");
        assert_eq!(o.force, Mode::Seccomp);
        assert_eq!(o.cache, CacheMode::Enabled);
        assert_eq!(o.container_type, ContainerType::TypeIII);
        assert!(o.context.is_empty());
        assert_eq!(o.target, None);
    }
}
