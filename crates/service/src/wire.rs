//! Length-prefixed framing over any byte stream.
//!
//! A frame is a 4-byte big-endian payload length followed by that many bytes
//! of UTF-8 JSON. The prefix makes message boundaries explicit (TCP is a byte
//! stream) and gives a cheap place to bound hostile inputs: frames above
//! [`MAX_FRAME_BYTES`] are rejected before any allocation, and the payload
//! buffer grows only as bytes arrive, so a peer that announces a large frame
//! and then stalls or hangs up costs memory in proportion to what it sent,
//! not to what it announced.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload. Large enough for a million-edge
/// `load_graph` request (~30 MB of JSON), small enough that a corrupt or
/// hostile length prefix cannot drive an allocation into the tens of
/// gigabytes.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Largest payload buffer [`read_frame`] reserves before any payload byte has
/// arrived. Longer frames grow the buffer as their bytes are read.
const READ_CHUNK: usize = 64 * 1024;

/// A framing-layer error.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer announced a frame larger than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced payload length.
        announced: u32,
    },
    /// The payload was not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Oversized { announced } => write!(
                f,
                "frame of {announced} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            WireError::NotUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> Result<(), WireError> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| WireError::Oversized {
        announced: u32::MAX,
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { announced: len });
    }
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (EOF before
/// the first prefix byte); EOF in the middle of a frame is an error.
///
/// Timeout-style errors (`WouldBlock` / `TimedOut` from a socket read
/// timeout) are surfaced as `WireError::Io` only when no byte of the frame
/// has been consumed yet; once a prefix byte has arrived the read retries
/// through timeouts until the frame completes, so a slow writer cannot
/// desynchronize the stream. Callers that poll with a read timeout should
/// treat a `WouldBlock`/`TimedOut` `Io` error as "no frame yet, try again".
pub fn read_frame(stream: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut prefix[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame prefix",
                )));
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && got == 0 => return Err(WireError::Io(e)),
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { announced: len });
    }
    let len = len as usize;
    // The announced length is a claim, not bytes: reserve one chunk and let
    // `read_to_end` grow the buffer (fallibly) as the payload arrives.
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    while payload.len() < len {
        let rest = (len - payload.len()) as u64;
        match stream.by_ref().take(rest).read_to_end(&mut payload) {
            Ok(_) if payload.len() < len => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                )))
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::NotUtf8)
}

/// Whether an i/o error is a socket read-timeout marker.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "second ünïcode frame").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"op":"ping"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("second ünïcode frame")
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"garbage");
        match read_frame(&mut Cursor::new(buf)) {
            Err(WireError::Oversized { announced }) => assert_eq!(announced, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_errors_not_silence() {
        // EOF inside the prefix.
        let r = read_frame(&mut Cursor::new(vec![0u8, 0]));
        assert!(matches!(r, Err(WireError::Io(_))));
        // EOF inside the payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::Io(_))
        ));
    }

    /// Hands out at most three bytes per read and reports a read timeout
    /// before every chunk, like a socket with a short read timeout fed by a
    /// slow writer.
    struct Trickle {
        bytes: Cursor<Vec<u8>>,
        stall: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3);
            self.bytes.read(&mut buf[..n])
        }
    }

    #[test]
    fn payload_reads_retry_through_timeouts() {
        let payload = "x".repeat(100_000);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, "next").unwrap();
        let mut r = Trickle {
            bytes: Cursor::new(buf),
            stall: false,
        };
        // Before the first byte of a frame a timeout means "no frame yet",
        // and a polling caller tries again. Inside a frame the read retries
        // by itself: surfacing a timeout there would restart on payload
        // bytes and desynchronize the stream.
        assert!(matches!(read_frame(&mut r), Err(WireError::Io(e)) if is_timeout(&e)));
        let mut poll = || loop {
            match read_frame(&mut r) {
                Err(WireError::Io(e)) if is_timeout(&e) => {}
                other => break other.unwrap(),
            }
        };
        assert_eq!(poll().as_deref(), Some(&*payload));
        assert_eq!(poll().as_deref(), Some("next"));
        assert_eq!(poll(), None, "clean eof");
    }

    #[test]
    fn non_utf8_payload_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(WireError::NotUtf8)
        ));
    }
}
