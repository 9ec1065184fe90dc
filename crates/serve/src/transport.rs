//! Frame transports: an in-process duplex pair for deterministic tests
//! and a localhost TCP stream for real connections.
//!
//! A [`Transport`] moves whole frames (as produced by
//! [`crate::proto::encode_request`] / [`crate::proto::encode_response`],
//! including the 8-byte length + CRC header) in both directions. The
//! in-process pair is two bounded-by-nothing mpsc channels — sends never
//! block, receives can poll — which is what the `workers = 0`
//! [`crate::InProcServer`] tests need: every interleaving is chosen by
//! the test, not the kernel.

use crate::proto::{frame_body_len, ProtoError};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Send one whole frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Block until a whole frame arrives (or the peer goes away).
    fn recv(&mut self) -> io::Result<Vec<u8>>;

    /// Non-blocking poll: `Ok(None)` when no frame is ready. Transports
    /// without a cheap poll (TCP) return `ErrorKind::Unsupported`.
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>>;
}

fn broken_pipe() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "transport peer closed")
}

/// One end of an in-process duplex frame pipe (see [`inproc_pair`]).
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    notify: Option<std::sync::Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport").field("notify", &self.notify.is_some()).finish()
    }
}

/// Create a connected pair of in-process transports: frames sent on one
/// end arrive on the other, in order, never corrupted and never merged.
pub fn inproc_pair() -> (InProcTransport, InProcTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        InProcTransport { tx: a_tx, rx: a_rx, notify: None },
        InProcTransport { tx: b_tx, rx: b_rx, notify: None },
    )
}

impl InProcTransport {
    /// Install a readiness hook: `f` runs after every successful send,
    /// so a poll-driven peer can learn a frame is waiting without
    /// sleeping. [`crate::InProcServer`] marks a
    /// [`viz_fetch::ReadySet`] token here — this is what makes the
    /// in-process pipe a virtual-readiness transport.
    pub fn set_notify(&mut self, f: std::sync::Arc<dyn Fn() + Send + Sync>) {
        self.notify = Some(f);
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx.send(frame.to_vec()).map_err(|_| broken_pipe())?;
        if let Some(n) = &self.notify {
            n();
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx.recv().map_err(|_| broken_pipe())
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(broken_pipe()),
        }
    }
}

/// Frame transport over a TCP stream. Reads the 8-byte length + CRC
/// header first, bounds-checks the declared body length, then reads
/// exactly that many more bytes — a malicious length prefix is refused
/// before any allocation.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap an accepted or connected stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport { stream }
    }

    /// Connect to a listening [`crate::TcpServer`].
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(TcpTransport { stream: TcpStream::connect(addr)? })
    }

    /// The underlying stream (read-timeout tuning, shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut header = [0u8; 8];
        self.stream.read_exact(&mut header)?;
        let body_len = frame_body_len(&header).map_err(io::Error::from)?;
        let mut frame = vec![0u8; 8 + body_len];
        frame[..8].copy_from_slice(&header);
        self.stream.read_exact(&mut frame[8..])?;
        Ok(frame)
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "TCP transport has no cheap poll"))
    }
}

/// Re-exported for transports: decode failure of the length header.
pub type FrameHeaderError = ProtoError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_pair_moves_frames_both_ways() {
        let (mut a, mut b) = inproc_pair();
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"world");
        assert!(b.try_recv().unwrap().is_none());
        b.send(b"ack").unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }

    #[test]
    fn inproc_peer_drop_is_broken_pipe() {
        let (mut a, b) = inproc_pair();
        drop(b);
        assert_eq!(a.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(a.recv().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }
}
