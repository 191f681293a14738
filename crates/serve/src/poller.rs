//! Readiness polling for the event-loop front end: a minimal epoll/poll(2)
//! wrapper over raw syscalls.
//!
//! std exposes no socket-readiness API, and the workspace takes no
//! crates.io dependencies, so this module declares the four syscalls it
//! needs (`poll`, `epoll_create1`, `epoll_ctl`, `epoll_wait`, plus `close`)
//! itself. Two interchangeable backends sit behind the same [`Poller`]
//! surface:
//!
//! * **epoll** (Linux): interest is registered once per fd with
//!   `epoll_ctl`, waits are O(ready). Level-triggered, so the event loop
//!   may leave bytes unread and still hear about them on the next wait.
//! * **poll(2)** (every other unix): the interest list is rebuilt into a
//!   `pollfd` array per wait. O(fds) per wait, but portable.
//!
//! The backend is chosen by `target_os` alone.
//!
//! All `unsafe` in the crate lives in the [`sys`] module below, one
//! documented block per call.

use std::time::Duration;

/// Token values are caller-chosen; the event loop uses fixed tokens for
/// the listener and waker and `conn_id + CONN_BASE` for connections.
pub(crate) type Token = u64;

/// What a file descriptor is ready for (or what to watch it for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    /// Watch for/observed readability (incoming bytes, accepts, EOF).
    pub readable: bool,
    /// Watch for/observed writability (send-buffer space).
    pub writable: bool,
}

impl Interest {
    /// Readable-only interest.
    pub(crate) const READ: Self = Self { readable: true, writable: false };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub token: Token,
    /// Ready to read (also set on EOF/hangup so the read path observes it).
    pub readable: bool,
    /// Ready to write.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is done for.
    pub closed: bool,
}

/// The raw syscall layer: the only `unsafe` in the workspace. Every call
/// is a thin wrapper whose safety argument is stated at the call site;
/// nothing here retains pointers past the call.
#[allow(unsafe_code)]
mod sys {
    #[cfg(not(target_os = "linux"))]
    pub(crate) use poll2::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

    /// The poll(2) syscall, for the backend off Linux.
    #[cfg(not(target_os = "linux"))]
    mod poll2 {
        use std::io;
        use std::os::raw::c_int;

        /// `struct pollfd` from `<poll.h>`: identical layout on every
        /// unix.
        #[repr(C)]
        #[derive(Debug, Clone, Copy)]
        pub(crate) struct PollFd {
            pub fd: c_int,
            pub events: i16,
            pub revents: i16,
        }

        pub(crate) const POLLIN: i16 = 0x001;
        pub(crate) const POLLOUT: i16 = 0x004;
        pub(crate) const POLLERR: i16 = 0x008;
        pub(crate) const POLLHUP: i16 = 0x010;
        pub(crate) const POLLNVAL: i16 = 0x020;

        /// `nfds_t` is `unsigned long` on Linux and `unsigned int` on the
        /// BSDs/macOS.
        #[cfg(target_os = "linux")]
        type NfdsT = std::os::raw::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NfdsT = std::os::raw::c_uint;

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
        }

        /// poll(2) over the given descriptors; `timeout_ms < 0` blocks
        /// indefinitely. Returns how many entries have non-zero
        /// `revents`.
        pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
            // SAFETY: `fds` points at `fds.len()` initialized, properly
            // laid out (#[repr(C)]) pollfd records that live for the
            // whole call; the kernel writes only their `revents` fields.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(rc as usize)
            }
        }
    }

    /// close(2); used for the epoll instance fd, which std never owns.
    #[cfg(target_os = "linux")]
    pub(crate) fn close_fd(fd: std::os::fd::RawFd) {
        use std::os::raw::c_int;
        extern "C" {
            fn close(fd: c_int) -> c_int;
        }
        // SAFETY: called exactly once, from Drop, on an fd this module
        // created via epoll_create1 and never handed out.
        let _ = unsafe { close(fd) };
    }

    /// The epoll syscalls, for the Linux backend.
    #[cfg(target_os = "linux")]
    pub(crate) mod epoll {
        use std::io;
        use std::os::fd::RawFd;
        use std::os::raw::c_int;

        /// `struct epoll_event`: packed on x86-64 (kernel ABI), natural
        /// alignment elsewhere.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Debug, Clone, Copy)]
        pub(crate) struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub(crate) const EPOLLIN: u32 = 0x001;
        pub(crate) const EPOLLOUT: u32 = 0x004;
        pub(crate) const EPOLLERR: u32 = 0x008;
        pub(crate) const EPOLLHUP: u32 = 0x010;
        pub(crate) const EPOLLRDHUP: u32 = 0x2000;

        pub(crate) const EPOLL_CTL_ADD: c_int = 1;
        pub(crate) const EPOLL_CTL_DEL: c_int = 2;
        pub(crate) const EPOLL_CTL_MOD: c_int = 3;

        const EPOLL_CLOEXEC: c_int = 0o2000000;

        extern "C" {
            fn epoll_create1(flags: c_int) -> c_int;
            fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }

        /// A fresh close-on-exec epoll instance.
        pub(crate) fn create() -> io::Result<RawFd> {
            // SAFETY: no pointers involved; the returned fd (or -1) is
            // checked before use.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(fd)
            }
        }

        /// `epoll_ctl(2)` with an optional event record (DEL takes none).
        pub(crate) fn ctl(
            epfd: RawFd,
            op: c_int,
            fd: RawFd,
            mut event: Option<EpollEvent>,
        ) -> io::Result<()> {
            let ptr: *mut EpollEvent =
                event.as_mut().map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is either null (permitted for EPOLL_CTL_DEL on
            // any modern kernel) or points at a live, properly laid out
            // EpollEvent for the duration of the call; the kernel copies
            // it and retains nothing.
            let rc = unsafe { epoll_ctl(epfd, op, fd, ptr) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// `epoll_wait(2)` into `events`; `timeout_ms < 0` blocks. Returns
        /// the ready count.
        pub(crate) fn wait(
            epfd: RawFd,
            events: &mut [EpollEvent],
            timeout_ms: c_int,
        ) -> io::Result<usize> {
            // SAFETY: `events` points at `events.len()` writable records
            // that live for the whole call; the kernel writes at most
            // `maxevents` of them and retains nothing.
            let rc =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(rc as usize)
            }
        }
    }
}

/// Converts an optional wait budget to the millisecond convention both
/// syscalls share: `-1` blocks, `0` polls, else round **up** so a 100µs
/// budget does not spin as `0`.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = i32::try_from(d.as_millis()).unwrap_or(i32::MAX);
            if ms == 0 && d.as_nanos() > 0 {
                1
            } else {
                ms
            }
        }
    }
}

/// The epoll backend (Linux).
#[cfg(target_os = "linux")]
mod backend {
    use super::sys::epoll::{
        self, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD,
        EPOLL_CTL_DEL, EPOLL_CTL_MOD,
    };
    use super::{sys, Interest, PollEvent, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Readiness poller: epoll flavor.
    pub(crate) struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self { epfd: epoll::create()?, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
        }

        fn event(token: Token, interest: Interest) -> EpollEvent {
            // Peer half-close (RDHUP) is a read event: level-triggered, it
            // would fire on every wait while a connection that already saw
            // EOF waits for its answers, spinning the loop.
            let mut events = 0;
            if interest.readable {
                events |= EPOLLIN | EPOLLRDHUP;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            EpollEvent { events, data: token }
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            epoll::ctl(self.epfd, EPOLL_CTL_ADD, fd, Some(Self::event(token, interest)))
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            epoll::ctl(self.epfd, EPOLL_CTL_MOD, fd, Some(Self::event(token, interest)))
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) {
            let _ = epoll::ctl(self.epfd, EPOLL_CTL_DEL, fd, None);
        }

        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            let n = match epoll::wait(self.epfd, &mut self.buf, super::timeout_ms(timeout)) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) record before use.
                let (bits, data) = (ev.events, ev.data);
                events.push(PollEvent {
                    token: data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }
}

/// The portable poll(2) backend (every other unix).
#[cfg(not(target_os = "linux"))]
mod backend {
    use super::sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
    use super::{sys, Interest, PollEvent, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// Readiness poller: poll(2) flavor. The interest list is the source
    /// of truth; each wait rebuilds the `pollfd` array from it.
    pub(crate) struct Poller {
        entries: Vec<(RawFd, Token, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        #[allow(clippy::unnecessary_wraps)] // signature mirrors the epoll backend
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self { entries: Vec::new(), buf: Vec::new() })
        }

        #[allow(clippy::unnecessary_wraps)] // signature mirrors the epoll backend
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            for entry in &mut self.entries {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) {
            self.entries.retain(|&(entry_fd, _, _)| entry_fd != fd);
        }

        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            events.clear();
            self.buf.clear();
            for &(fd, _, interest) in &self.entries {
                let mut bits = 0i16;
                if interest.readable {
                    bits |= POLLIN;
                }
                if interest.writable {
                    bits |= POLLOUT;
                }
                self.buf.push(PollFd { fd, events: bits, revents: 0 });
            }
            let n = match sys::poll_fds(&mut self.buf, super::timeout_ms(timeout)) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Ok(());
            }
            for (slot, &(_, token, _)) in self.buf.iter().zip(&self.entries) {
                let got = slot.revents;
                if got == 0 {
                    continue;
                }
                events.push(PollEvent {
                    token,
                    readable: got & (POLLIN | POLLHUP) != 0,
                    writable: got & POLLOUT != 0,
                    closed: got & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

pub(crate) use backend::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn a_half_closed_socket_without_read_interest_stays_quiet() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.write_all(b"x\n").expect("send");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut poller = Poller::new().expect("poller");
        poller.register(server.as_raw_fd(), 7, Interest::READ).expect("register");
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(100))).expect("wait");
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");
        // Reading is over (EOF seen, answers pending): with neither read
        // nor write interest the peer's half-close must not wake the loop.
        let idle = Interest { readable: false, writable: false };
        poller.modify(server.as_raw_fd(), 7, idle).expect("modify");
        poller.wait(&mut events, Some(Duration::from_millis(50))).expect("wait");
        assert!(events.is_empty(), "{events:?}");
    }
}
