//! Minimal Linux `epoll`/`eventfd` bindings for the reactor.
//!
//! The reactor needs exactly four kernel facilities: an epoll instance
//! (`epoll_create1`), interest registration (`epoll_ctl`), readiness
//! waiting (`epoll_wait`) and a cross-thread wakeup fd (`eventfd`).  std
//! already links libc, so declaring the symbols directly costs nothing and
//! keeps the workspace dependency-free; this module is the only place in
//! the crate allowed to use `unsafe`, and it exposes only safe RAII
//! wrappers ([`Epoll`], [`EventFd`]) whose invariants are local:
//!
//! * every fd created here is closed exactly once, in `Drop`;
//! * `epoll_wait` writes into a caller-sized buffer and we only read back
//!   the kernel-reported prefix;
//! * `eventfd` reads/writes use an 8-byte integer, as the kernel requires.
//!
//! Three socket-buffer helpers ([`set_recv_buffer`], [`recv_buffer`],
//! [`send_buffer`]) let tests pin and read the kernel's `SO_RCVBUF` /
//! `SO_SNDBUF`, so a test that needs a stalled peer forces the stall
//! whatever the host's `tcp_rmem`/`tcp_wmem` autotuning allows.  Their
//! `setsockopt`/`getsockopt` calls pass a 4-byte `int` and its size, as
//! the kernel requires.
//!
//! Interest is **level-triggered** (the epoll default): the reactor
//! deliberately relies on "data still buffered ⇒ next wait returns the fd"
//! to keep its per-connection state machines simple.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

// Constants from <sys/epoll.h> / <sys/eventfd.h> (Linux ABI, stable).
/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (half-close).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;
// <asm-generic/socket.h> values, shared by x86-64 and aarch64.
const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;
const SO_RCVBUF: i32 = 8;

/// The kernel's `struct epoll_event`.  Packed on x86-64 (the kernel ABI
/// packs it there so 32-bit and 64-bit layouts agree); natural layout on
/// other architectures.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub token: u64,
}

impl EpollEvent {
    /// An empty slot for the `epoll_wait` output buffer.
    pub const fn zeroed() -> Self {
        Self {
            events: 0,
            token: 0,
        }
    }

    /// Ready-event mask (copied by value — callers must never take a
    /// reference into the possibly-packed layout).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// Registration token (copied by value).
    pub fn token(&self) -> u64 {
        self.token
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance (RAII: closed on drop).
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Register `fd` with an interest mask and token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change the interest mask/token of a registered fd.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister a fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL (must be non-null only on
        // pre-2.6.9 kernels; passing one is harmless everywhere).
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for readiness, filling `events` from the
    /// front.  Returns how many entries are valid.  Retries on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        debug_assert!(!events.is_empty(), "need at least one event slot");
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { close(self.fd) };
    }
}

/// A nonblocking `eventfd` used to wake the reactor from other threads
/// (hash-compute completions, shutdown).
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Add 1 to the counter, making the fd readable.  Called from compute
    /// threads; never blocks (the counter saturating at `u64::MAX - 1`
    /// returns `EAGAIN`, which still leaves the fd readable, so the wakeup
    /// is not lost).
    pub fn signal(&self) {
        let one: u64 = 1;
        let _ = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Reset the counter to 0 (reactor side, after waking).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // Nonblocking: a single read clears the whole counter; EAGAIN
        // means it was already 0.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        let _ = unsafe { close(self.fd) };
    }
}

/// Pin a socket's receive buffer to `bytes` (`SO_RCVBUF`).  This also
/// turns off the kernel's receive-buffer autotuning for the socket, and
/// the kernel doubles the value for its bookkeeping: read the effective
/// size back with [`recv_buffer`].
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let value = i32::try_from(bytes).unwrap_or(i32::MAX);
    cvt(unsafe { setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &value, 4) })?;
    Ok(())
}

/// A socket's receive buffer size as the kernel reports it (`SO_RCVBUF`).
pub fn recv_buffer(fd: RawFd) -> io::Result<usize> {
    socket_option(fd, SO_RCVBUF)
}

/// A socket's send buffer size as the kernel reports it (`SO_SNDBUF`);
/// for an autotuned socket, the size it has grown to so far.
pub fn send_buffer(fd: RawFd) -> io::Result<usize> {
    socket_option(fd, SO_SNDBUF)
}

fn socket_option(fd: RawFd, name: i32) -> io::Result<usize> {
    let mut value: i32 = 0;
    let mut len: u32 = 4;
    cvt(unsafe { getsockopt(fd, SOL_SOCKET, name, &mut value, &mut len) })?;
    Ok(usize::try_from(value).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_signal_wakes_epoll_and_drain_clears_it() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing signalled yet: zero-timeout wait returns no events.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        efd.signal();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // One drain clears the whole counter (both signals).
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_reports_tcp_readability_with_tokens() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll
            .add(listener.as_raw_fd(), EPOLLIN, 42)
            .expect("register listener");

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no pending accept");

        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);

        // Accept, register the server end, and check data readiness.
        let (server_end, _) = listener.accept().unwrap();
        epoll.add(server_end.as_raw_fd(), EPOLLIN, 43).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].token() == 43));

        // Modify to writable interest: an idle socket is writable.
        epoll.modify(server_end.as_raw_fd(), EPOLLOUT, 44).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!((0..n).any(|i| events[i].token() == 44 && events[i].events() & EPOLLOUT != 0));

        epoll.delete(server_end.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "deregistered");
    }

    #[test]
    fn socket_buffer_sizes_can_be_pinned_and_read_back() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        set_recv_buffer(client.as_raw_fd(), 64 * 1024).unwrap();
        // The kernel doubles the request for bookkeeping overhead.
        assert_eq!(recv_buffer(client.as_raw_fd()).unwrap(), 128 * 1024);
        assert!(send_buffer(server_end.as_raw_fd()).unwrap() > 0);
        assert!(recv_buffer(-1).is_err(), "a bad fd reports an error");
    }
}
