//! Thin std-only readiness polling for the serving reactor.
//!
//! Wraps the OS readiness primitive behind a tiny mio-style surface:
//! [`Poller`] owns the polling handle, sockets are registered with a
//! `usize` token plus an [`Interest`], and [`Poller::wait`] fills a
//! vector of [`Event`]s. A self-pipe [`Waker`] lets worker threads nudge
//! the reactor out of `wait` when they queue a response.
//!
//! Backends (selected at compile time, no external crates):
//! - Linux: `epoll` (level-triggered), via direct `extern "C"`
//!   declarations against the libc that `std` already links.
//! - Other Unix (macOS/BSD): portable `poll(2)` with an interest table.
//!   Linux has `poll(2)` too, so this backend is built on every Unix
//!   and the unit tests below run against both backends on Linux.
//!
//! Level-triggered semantics everywhere: an event fires as long as the
//! condition holds, so the reactor never needs to drain-to-`WouldBlock`
//! for correctness (it still does, for throughput).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Token reserved for the internal waker; never reported to callers.
pub const WAKER_TOKEN: usize = usize::MAX;

/// What readiness a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer closed).
    pub readable: bool,
    /// Wake when the fd is writable again.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (used while a partial write is parked).
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// No interest; the fd stays registered but silent (backpressure).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration time.
    pub token: usize,
    /// The fd has bytes to read (or EOF to observe).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; treat as readable-to-EOF.
    pub hangup: bool,
}

/// Handle for waking the poller from another thread.
///
/// Cloning is cheap; each clone writes to the same self-pipe. Wakes
/// coalesce: N wakes before the next `wait` produce one wakeup.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Nudge the poller out of [`Poller::wait`].
    pub fn wake(&self) {
        let buf = [1u8];
        // A full pipe already guarantees a pending wakeup; ignore errors.
        unsafe {
            let _ = sys::write(self.fd, buf.as_ptr().cast(), 1);
        }
    }
}

impl Clone for Waker {
    fn clone(&self) -> Waker {
        Waker {
            fd: unsafe { sys::dup(self.fd) },
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.fd);
        }
    }
}

// The fd is used only for single-byte writes, which are atomic.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

/// Shared syscall declarations. `std` links libc on every Unix target,
/// so these resolve without adding a dependency.
mod sys {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub fn close(fd: c_int) -> c_int;
        pub fn dup(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    pub const F_SETFL: c_int = 4;
    pub const F_SETFD: c_int = 2;
    pub const FD_CLOEXEC: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 0x0004;

    /// Create a nonblocking close-on-exec pipe, returning (read, write).
    pub fn nonblocking_pipe() -> std::io::Result<(c_int, c_int)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        for fd in fds {
            unsafe {
                fcntl(fd, F_SETFL, O_NONBLOCK);
                fcntl(fd, F_SETFD, FD_CLOEXEC);
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// Drain every pending byte from the waker pipe.
    pub fn drain_pipe(fd: c_int) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{sys, Event, Interest, WAKER_TOKEN};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    // The kernel ABI packs epoll_event on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

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

    /// epoll-backed poller.
    pub struct Poller {
        epfd: RawFd,
        wake_rx: RawFd,
        wake_tx: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let (wake_rx, wake_tx) = match sys::nonblocking_pipe() {
                Ok(p) => p,
                Err(e) => {
                    unsafe { sys::close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller {
                epfd,
                wake_rx,
                wake_tx,
            };
            poller.ctl(EPOLL_CTL_ADD, wake_rx, WAKER_TOKEN, Interest::READABLE)?;
            Ok(poller)
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token as u64,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn waker(&self) -> super::Waker {
            super::Waker {
                fd: unsafe { sys::dup(self.wake_tx) },
            }
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let timeout_ms: c_int = match timeout {
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in buf.iter().take(n as usize) {
                let token = { ev.data } as usize;
                if token == WAKER_TOKEN {
                    sys::drain_pipe(self.wake_rx);
                    continue;
                }
                let bits = { ev.events };
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                sys::close(self.wake_rx);
                sys::close(self.wake_tx);
                sys::close(self.epfd);
            }
        }
    }
}

// Only the tests use it on Linux, where epoll is the `Poller`.
#[cfg(unix)]
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod portable {
    use super::{sys, Event, Interest, WAKER_TOKEN};
    use std::collections::HashMap;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout: c_int) -> c_int;
    }

    /// Portable `poll(2)` fallback for kqueue platforms; the interest
    /// table lives in userspace and is rebuilt on every wait.
    pub struct Poller {
        registrations: Mutex<HashMap<RawFd, (usize, Interest)>>,
        wake_rx: RawFd,
        wake_tx: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let (wake_rx, wake_tx) = sys::nonblocking_pipe()?;
            Ok(Poller {
                registrations: Mutex::new(HashMap::new()),
                wake_rx,
                wake_tx,
            })
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registrations
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registrations.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn waker(&self) -> super::Waker {
            super::Waker {
                fd: unsafe { sys::dup(self.wake_tx) },
            }
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let mut fds = Vec::new();
            let mut tokens = Vec::new();
            fds.push(PollFd {
                fd: self.wake_rx,
                events: POLLIN,
                revents: 0,
            });
            tokens.push(WAKER_TOKEN);
            {
                let regs = self.registrations.lock().unwrap();
                for (&fd, &(token, interest)) in regs.iter() {
                    let mut events = 0;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd,
                        events,
                        revents: 0,
                    });
                    tokens.push(token);
                }
            }
            let timeout_ms: c_int = match timeout {
                Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in fds.iter().zip(tokens.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                if token == WAKER_TOKEN {
                    sys::drain_pipe(self.wake_rx);
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                sys::close(self.wake_rx);
                sys::close(self.wake_tx);
            }
        }
    }
}

#[cfg(target_os = "linux")]
use epoll as backend;
#[cfg(not(target_os = "linux"))]
use portable as backend;

/// Readiness poller over the platform backend (epoll on Linux,
/// `poll(2)` elsewhere on Unix).
///
/// All registration methods take the raw fd; the caller keeps ownership
/// of the socket and must deregister before closing it (the Linux
/// backend would otherwise keep reporting a dangling registration,
/// although closing an fd does remove it from the epoll set when no
/// other references exist).
pub struct Poller {
    inner: backend::Poller,
}

impl Poller {
    /// Create a poller plus its internal self-pipe waker.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: backend::Poller::new()?,
        })
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Change the interest set for an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.reregister(fd, token, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// A handle other threads can use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        self.inner.waker()
    }

    /// Block until readiness, a wake, or `timeout`; fills `out`.
    ///
    /// Waker events are consumed internally and never surfaced. A
    /// return with an empty `out` means timeout or explicit wake.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.wait(out, timeout)
    }
}

#[cfg(test)]
mod tests {
    /// The same checks against each backend this target builds: epoll and
    /// `poll(2)` on Linux, `poll(2)` elsewhere.
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use super::super::$backend::Poller;
                use super::super::Interest;
                use std::io::{Read, Write};
                use std::net::{TcpListener, TcpStream};
                use std::os::unix::io::AsRawFd;
                use std::time::{Duration, Instant};

                #[test]
                fn timeout_returns_empty() {
                    let poller = Poller::new().unwrap();
                    let mut events = Vec::new();
                    let started = Instant::now();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(30)))
                        .unwrap();
                    assert!(events.is_empty());
                    assert!(started.elapsed() >= Duration::from_millis(20));
                }

                #[test]
                fn waker_interrupts_wait() {
                    let poller = Poller::new().unwrap();
                    let waker = poller.waker();
                    let handle = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(20));
                        waker.wake();
                    });
                    let mut events = Vec::new();
                    let started = Instant::now();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert!(events.is_empty());
                    assert!(started.elapsed() < Duration::from_secs(4));
                    handle.join().unwrap();
                }

                #[test]
                fn readable_socket_reports_its_token() {
                    let poller = Poller::new().unwrap();
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let addr = listener.local_addr().unwrap();
                    let mut client = TcpStream::connect(addr).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();
                    poller
                        .register(server.as_raw_fd(), 7, Interest::READABLE)
                        .unwrap();

                    client.write_all(b"hello").unwrap();
                    let mut events = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while events.is_empty() && Instant::now() < deadline {
                        poller
                            .wait(&mut events, Some(Duration::from_millis(100)))
                            .unwrap();
                    }
                    assert_eq!(events.len(), 1);
                    assert_eq!(events[0].token, 7);
                    assert!(events[0].readable);

                    let mut buf = [0u8; 16];
                    let n = (&server).read(&mut buf).unwrap();
                    assert_eq!(&buf[..n], b"hello");
                    poller.deregister(server.as_raw_fd()).unwrap();
                }

                #[test]
                fn interest_none_silences_a_ready_socket() {
                    let poller = Poller::new().unwrap();
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let addr = listener.local_addr().unwrap();
                    let mut client = TcpStream::connect(addr).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();
                    client.write_all(b"x").unwrap();

                    poller
                        .register(server.as_raw_fd(), 3, Interest::NONE)
                        .unwrap();
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(50)))
                        .unwrap();
                    assert!(events.is_empty(), "paused registration must stay silent");

                    poller
                        .reregister(server.as_raw_fd(), 3, Interest::READABLE)
                        .unwrap();
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while events.is_empty() && Instant::now() < deadline {
                        poller
                            .wait(&mut events, Some(Duration::from_millis(100)))
                            .unwrap();
                    }
                    assert_eq!(events.len(), 1);
                    assert!(events[0].readable);
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_tests!(epoll);
    backend_tests!(portable);
}
