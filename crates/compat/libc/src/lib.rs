//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no network access, so this shim provides
//! the (tiny) API subset the workspace uses — `poll(2)` readiness
//! multiplexing and `RLIMIT_NOFILE` queries — with the same names,
//! types and `#[repr(C)]` layouts as the real crate. On Unix targets
//! the symbols resolve against the platform C library that `std`
//! already links, so there is nothing to vendor; swapping in the real
//! `libc` later is a manifest-only change.
//!
//! Non-Unix targets get a degraded but honest fallback: `poll` sleeps
//! for (at most) the requested timeout and then reports every
//! descriptor ready, which is correct — if wasteful — for callers
//! using nonblocking sockets in a level-triggered loop, and the rlimit
//! calls report an effectively unlimited descriptor budget.

#![allow(non_camel_case_types)]

/// C `int`.
pub type c_int = i32;
/// C `short`.
pub type c_short = i16;
/// C `unsigned long`.
pub type c_ulong = u64;

/// Resource-limit magnitude (`rlim_t`).
pub type rlim_t = u64;

/// Number-of-descriptors argument to [`poll`].
#[cfg(target_os = "linux")]
pub type nfds_t = c_ulong;
/// Number-of-descriptors argument to [`poll`].
#[cfg(not(target_os = "linux"))]
pub type nfds_t = u32;

/// One descriptor's interest set and readiness, as `poll(2)` sees it.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct pollfd {
    /// The file descriptor to watch (negative entries are ignored).
    pub fd: c_int,
    /// Requested events (`POLLIN` | `POLLOUT` | ...).
    pub events: c_short,
    /// Returned events; the kernel may add `POLLERR`/`POLLHUP`/`POLLNVAL`.
    pub revents: c_short,
}

/// Data may be read without blocking.
pub const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: c_short = 0x004;
/// An error condition is pending (revents only).
pub const POLLERR: c_short = 0x008;
/// The peer hung up (revents only).
pub const POLLHUP: c_short = 0x010;
/// The descriptor is not open (revents only).
pub const POLLNVAL: c_short = 0x020;

/// The `RLIMIT_NOFILE` resource: maximum open file descriptors.
#[cfg(any(target_os = "macos", target_os = "ios"))]
pub const RLIMIT_NOFILE: c_int = 8;
/// The `RLIMIT_NOFILE` resource: maximum open file descriptors.
#[cfg(not(any(target_os = "macos", target_os = "ios")))]
pub const RLIMIT_NOFILE: c_int = 7;

/// A soft/hard resource-limit pair, as `getrlimit(2)` sees it.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct rlimit {
    /// The soft limit currently enforced.
    pub rlim_cur: rlim_t,
    /// The hard ceiling the soft limit may be raised to.
    pub rlim_max: rlim_t,
}

#[cfg(unix)]
mod sys {
    use super::{c_int, nfds_t, pollfd, rlimit};

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    }
}

/// Wait for readiness on a set of descriptors.
///
/// `timeout` is in milliseconds; negative blocks indefinitely, zero
/// returns immediately. Returns the number of descriptors with nonzero
/// `revents`, `0` on timeout, or `-1` with `errno` set.
///
/// # Safety
///
/// `fds` must point to `nfds` valid, initialised `pollfd` entries.
#[cfg(unix)]
pub unsafe fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int {
    sys::poll(fds, nfds, timeout)
}

/// Read a resource limit into `rlim`.
///
/// # Safety
///
/// `rlim` must point to a valid `rlimit`.
#[cfg(unix)]
pub unsafe fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int {
    sys::getrlimit(resource, rlim)
}

/// Set a resource limit from `rlim`.
///
/// # Safety
///
/// `rlim` must point to a valid `rlimit`.
#[cfg(unix)]
pub unsafe fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int {
    sys::setrlimit(resource, rlim)
}

/// Degraded fallback: sleep out the timeout, then claim every watched
/// descriptor ready. Level-triggered nonblocking callers stay correct
/// (reads/writes simply return `WouldBlock`), they just spin more.
#[cfg(not(unix))]
pub unsafe fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int {
    let wait_ms = if timeout < 0 { 10 } else { timeout.min(10) };
    if wait_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(wait_ms as u64));
    }
    let mut ready = 0;
    for i in 0..nfds as usize {
        let slot = &mut *fds.add(i);
        if slot.fd >= 0 && slot.events != 0 {
            slot.revents = slot.events;
            ready += 1;
        } else {
            slot.revents = 0;
        }
    }
    ready
}

/// Degraded fallback: report an effectively unlimited descriptor budget.
#[cfg(not(unix))]
pub unsafe fn getrlimit(_resource: c_int, rlim: *mut rlimit) -> c_int {
    (*rlim).rlim_cur = u64::MAX;
    (*rlim).rlim_max = u64::MAX;
    0
}

/// Degraded fallback: accept any requested limit.
#[cfg(not(unix))]
pub unsafe fn setrlimit(_resource: c_int, _rlim: *const rlimit) -> c_int {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollfd_layout_matches_the_kernel_abi() {
        assert_eq!(std::mem::size_of::<pollfd>(), 8);
        assert_eq!(std::mem::align_of::<pollfd>(), 4);
    }

    #[test]
    fn zero_timeout_poll_on_no_fds_returns_immediately() {
        let rc = unsafe { poll(std::ptr::null_mut(), 0, 0) };
        assert_eq!(rc, 0);
    }

    #[test]
    fn poll_reports_a_readable_local_socket() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        #[cfg(unix)]
        use std::os::unix::io::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(b"ping").unwrap();

        #[cfg(unix)]
        let fd = rx.as_raw_fd();
        #[cfg(not(unix))]
        let fd = 0;

        let mut fds = [pollfd {
            fd,
            events: POLLIN,
            revents: 0,
        }];
        let rc = unsafe { poll(fds.as_mut_ptr(), 1, 1_000) };
        assert_eq!(rc, 1, "one readable descriptor");
        assert_ne!(fds[0].revents & POLLIN, 0, "POLLIN must be set");
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let mut lim = rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
        assert_eq!(rc, 0);
        assert!(lim.rlim_cur > 0);
        assert!(lim.rlim_max >= lim.rlim_cur);
    }
}
