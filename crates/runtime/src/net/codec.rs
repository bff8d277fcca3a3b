//! Incremental frame reassembly for nonblocking sockets.
//!
//! A nonblocking read returns whatever bytes the kernel has, cut at
//! arbitrary boundaries: [`FrameBuffer`] takes raw chunks
//! ([`extend`](FrameBuffer::extend)) and pops complete frames
//! ([`next_frame`](FrameBuffer::next_frame)). A frame whose payload
//! (sans newline) exceeds the cap is an error as soon as the buffered
//! bytes prove it, without waiting for a newline a hostile peer may never
//! send. `tests/proptest_net_codec.rs` holds it to a blocking reference
//! reader with the same cap, frame for frame.

use bytes::Bytes;

use volley_core::VolleyError;

/// Reassembles newline-delimited frames from arbitrarily-split reads.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unconsumed region in `buf`.
    start: usize,
    /// Scan cursor: everything in `buf[start..scanned]` is known to be
    /// newline-free, so repeated polls never rescan the same bytes.
    scanned: usize,
    max_frame: usize,
}

impl FrameBuffer {
    /// Creates a buffer enforcing `max_frame` as the payload cap
    /// (excluding the terminating newline).
    pub fn new(max_frame: usize) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_frame,
        }
    }

    /// Appends raw bytes read off the wire.
    pub fn extend(&mut self, data: &[u8]) {
        // Compact consumed prefix before growing, so the buffer's size is
        // bounded by pending data, not by connection lifetime.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete frame (terminating newline included, like
    /// [`crate::message::encode`] output), `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`VolleyError::FrameTooLarge`] once the current frame provably
    /// exceeds the cap — whether or not its newline has arrived. The
    /// buffer is poisoned after an error; the connection should be
    /// closed, exactly as the blocking reader's callers do.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, VolleyError> {
        Ok(self.next_line()?.map(Bytes::copy_from_slice))
    }

    /// [`next_frame`](Self::next_frame) without the copy: the frame is
    /// borrowed from the buffer, valid until the next call. For callers
    /// that decode a frame on the spot instead of forwarding it.
    ///
    /// # Errors
    ///
    /// As [`next_frame`](Self::next_frame).
    pub fn next_line(&mut self) -> Result<Option<&[u8]>, VolleyError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let newline = self.scanned + offset;
                let payload = newline - self.start;
                if payload > self.max_frame {
                    return Err(VolleyError::FrameTooLarge {
                        size: payload,
                        max_size: self.max_frame,
                    });
                }
                let line = &self.buf[self.start..=newline];
                self.start = newline + 1;
                self.scanned = self.start;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                let pending = self.buf.len() - self.start;
                if pending > self.max_frame {
                    return Err(VolleyError::FrameTooLarge {
                        size: pending,
                        max_size: self.max_frame,
                    });
                }
                Ok(None)
            }
        }
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_frame_in_one_chunk() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(b"{\"a\":1}\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"{\"a\":1}\n");
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_split_across_chunks() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(b"{\"a\"");
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(b":1}");
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pending(), 7);
        fb.extend(b"\n{\"b\":2}\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"{\"a\":1}\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"{\"b\":2}\n");
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn many_frames_in_one_chunk() {
        let mut fb = FrameBuffer::new(8);
        fb.extend(b"a\nbb\nccc\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"a\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"bb\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"ccc\n");
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn borrowed_lines_match_copied_frames() {
        let wire = b"{\"a\":1}\n\nbb\n{\"tick\":";
        let (mut copied, mut borrowed) = (FrameBuffer::new(64), FrameBuffer::new(64));
        copied.extend(wire);
        borrowed.extend(wire);
        while let Some(frame) = copied.next_frame().unwrap() {
            assert_eq!(borrowed.next_line().unwrap(), Some(&frame[..]));
        }
        assert_eq!(borrowed.next_line().unwrap(), None);
        assert_eq!(borrowed.pending(), copied.pending());
    }

    #[test]
    fn payload_exactly_at_cap_is_accepted() {
        let mut fb = FrameBuffer::new(4);
        fb.extend(b"xxxx\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"xxxx\n");
    }

    #[test]
    fn oversized_payload_with_newline_errors() {
        let mut fb = FrameBuffer::new(4);
        fb.extend(b"xxxxx\n");
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(
            err,
            VolleyError::FrameTooLarge {
                size: 5,
                max_size: 4
            }
        ));
    }

    #[test]
    fn oversized_payload_without_newline_errors_early() {
        // A peer streaming garbage with no newline must not buffer
        // unboundedly: the cap trips as soon as pending bytes exceed it.
        let mut fb = FrameBuffer::new(4);
        fb.extend(b"xxx");
        assert!(fb.next_frame().unwrap().is_none());
        fb.extend(b"xx");
        assert!(matches!(
            fb.next_frame().unwrap_err(),
            VolleyError::FrameTooLarge {
                size: 5,
                max_size: 4
            }
        ));
    }

    #[test]
    fn empty_frame_is_just_a_newline() {
        let mut fb = FrameBuffer::new(4);
        fb.extend(b"\n");
        assert_eq!(&*fb.next_frame().unwrap().unwrap(), b"\n");
    }

    #[test]
    fn byte_at_a_time_reassembly() {
        let wire = b"{\"tick\":12}\n{\"tick\":13}\n";
        let mut fb = FrameBuffer::new(64);
        let mut frames = Vec::new();
        for &b in wire.iter() {
            fb.extend(&[b]);
            while let Some(frame) = fb.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(&*frames[0], b"{\"tick\":12}\n");
        assert_eq!(&*frames[1], b"{\"tick\":13}\n");
    }
}
