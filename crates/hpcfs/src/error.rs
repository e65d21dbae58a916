//! POSIX-shaped error codes.

use std::fmt;

/// Errors mirroring the POSIX errno values the workflows can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsError {
    /// ENOENT — no such file or directory.
    NotFound,
    /// EEXIST — file exists (O_CREAT|O_EXCL, mkdir, link).
    AlreadyExists,
    /// ENOTDIR — a path component is not a directory.
    NotADirectory,
    /// EISDIR — operation on a directory where a file was required.
    IsADirectory,
    /// ENOTEMPTY — directory not empty.
    NotEmpty,
    /// EBADF — bad file descriptor (closed, or wrong access mode).
    BadFd,
    /// EACCES — opened without the required access mode.
    AccessDenied,
    /// EINVAL — invalid argument (bad offset, bad rename, …).
    InvalidArgument,
    /// ENAMETOOLONG / bad path syntax.
    BadPath,
    /// ENOATTR — extended attribute not found.
    NoAttr,
    /// ELOOP — too many levels of symbolic links.
    TooManySymlinks,
    /// ENOSPC — simulated storage capacity exhausted.
    NoSpace,
    /// EXDEV — cross-"device" rename (reserved; single device today).
    CrossDevice,
    /// EIO — injected I/O fault (torn write, media error).
    Io,
    /// Simulation-only: the calling process was killed mid-operation by a
    /// fault-plan crash point. Not a POSIX errno — a crashed process never
    /// observes it; the *recovery* path (merge) is what reacts.
    Crashed,
}

impl FsError {
    /// The errno name, as a GOTCHA-level tracer would log it.
    pub fn errno_name(self) -> &'static str {
        match self {
            FsError::NotFound => "ENOENT",
            FsError::AlreadyExists => "EEXIST",
            FsError::NotADirectory => "ENOTDIR",
            FsError::IsADirectory => "EISDIR",
            FsError::NotEmpty => "ENOTEMPTY",
            FsError::BadFd => "EBADF",
            FsError::AccessDenied => "EACCES",
            FsError::InvalidArgument => "EINVAL",
            FsError::BadPath => "ENAMETOOLONG",
            FsError::NoAttr => "ENOATTR",
            FsError::TooManySymlinks => "ELOOP",
            FsError::NoSpace => "ENOSPC",
            FsError::CrossDevice => "EXDEV",
            FsError::Io => "EIO",
            FsError::Crashed => "ESIMCRASH",
        }
    }

    /// Whether a writer may reasonably retry the operation: media-level
    /// EIO and ENOSPC can clear (transient contention, quota churn);
    /// namespace/argument errors are permanent, and [`FsError::Crashed`]
    /// means there is no process left to retry.
    pub fn is_transient(self) -> bool {
        matches!(self, FsError::Io | FsError::NoSpace)
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.errno_name())
    }
}

impl std::error::Error for FsError {}

pub(crate) type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_names_stable() {
        assert_eq!(FsError::NotFound.to_string(), "ENOENT");
        assert_eq!(FsError::BadFd.to_string(), "EBADF");
    }
}
