//! The columnar segment format: pure, never-panicking encode/decode.
//!
//! A segment is a sequence of CRC-framed chunks, framed exactly like the
//! checkpoint WAL (`[len: u32 LE][crc: u32 LE][payload]`):
//!
//! ```text
//! segment   := header data* index?
//! header    := frame{ 0x00 "VSEG" version:u32 }
//! data      := frame{ 0x01 task:u32 monitor:u32 kind:u8 count:u32
//!                     tick_len:u32 tick-stream value-bitstream }
//! index     := frame{ 0x02 entry-count:u32 entry* }
//! entry     := task:u32 monitor:u32 kind:u8 min:u64 max:u64
//!              offset:u64 count:u32
//! ```
//!
//! Each data chunk holds one series run, columnar: the **tick stream** is
//! the first tick as a varint, the first delta as a varint, then
//! zigzag-varint delta-of-deltas (a steady cadence costs one byte per
//! sample regardless of the interval); the **value stream** is
//! Gorilla-style XOR bit packing — the first value raw, then a `0` bit
//! for an unchanged value or `1` + 6-bit leading-zero count + 6-bit
//! length + the meaningful XOR bits. Both encodings are lossless for
//! every `f64` bit pattern, NaN and infinities included.
//!
//! The trailing sparse index lets a scan skip whole chunks by series key
//! and tick range without touching their payloads. It is advisory: when
//! missing or corrupt, [`SegmentReader::open`] rebuilds the entries from
//! the data chunks themselves.
//!
//! Torn or corrupted tails follow the WAL's rule: everything before the
//! first bad frame is trusted, everything after it is ignored. Decoding
//! never panics on arbitrary input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use volley_core::hash::splitmix64;

use crate::record::{Record, RecordKind, SeriesKey};

/// Upper bound on one frame's payload, mirroring the WAL's cap: anything
/// larger is treated as corruption rather than a 4 GB allocation.
pub const MAX_CHUNK_LEN: usize = 16 * 1024 * 1024;

/// Bytes of framing per chunk (length + CRC prefixes).
pub const FRAME_OVERHEAD: usize = 8;

/// Records per data chunk: small enough that a scan materializes at most
/// one chunk at a time, large enough that framing amortizes away.
pub const MAX_CHUNK_RECORDS: usize = 4096;

/// Segment format version; readers refuse segments from the future.
pub const SEGMENT_VERSION: u32 = 1;

const TAG_HEADER: u8 = 0x00;
const TAG_DATA: u8 = 0x01;
const TAG_INDEX: u8 = 0x02;
const MAGIC: &[u8; 4] = b"VSEG";

/// CRC-32 (IEEE) slicing-by-8 tables, built at compile time: row 0 is
/// the classic bytewise table, row `k` advances a byte's CRC over `k`
/// more zero bytes, so eight table lookups fold eight input bytes at
/// once. The checkpoint WAL frames its records with the same [`crc32`].
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Varints and bit streams.

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag so small magnitudes of either sign stay one byte. `i128`
/// because a delta-of-delta of `u64` ticks can exceed `i64`.
fn put_signed_varint(out: &mut Vec<u8>, v: i128) {
    let zig = ((v << 1) ^ (v >> 127)) as u128;
    let mut z = zig;
    loop {
        let byte = (z & 0x7F) as u8;
        z >>= 7;
        if z == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked byte cursor; every read returns `Option`.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // Reject non-canonical encodings that would overflow.
                if shift == 63 && byte > 1 {
                    return None;
                }
                return Some(v);
            }
        }
        None
    }

    fn signed_varint(&mut self) -> Option<i128> {
        let mut z = 0u128;
        for shift in (0..128).step_by(7) {
            let byte = self.u8()?;
            z |= u128::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if shift == 126 && byte > 3 {
                    return None;
                }
                let v = ((z >> 1) as i128) ^ -((z & 1) as i128);
                return Some(v);
            }
        }
        None
    }

    fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos.min(self.bytes.len())..]
    }
}

/// MSB-first bit writer over a byte vector. Bits gather in a `u128`
/// accumulator and leave it as whole bytes.
struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; only the low `pending` are live.
    acc: u128,
    /// Bits in `acc` not yet emitted (< 8 between calls).
    pending: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            bytes: Vec::new(),
            acc: 0,
            pending: 0,
        }
    }

    fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Writes the low `count` (≤ 64) bits of `value`, most significant
    /// first.
    fn write_bits(&mut self, value: u64, count: u8) {
        let count = u32::from(count);
        let value = value & u64::MAX.checked_shr(64 - count).unwrap_or(0);
        self.acc = (self.acc << count) | u128::from(value);
        self.pending += count;
        let whole = (self.pending / 8) as usize;
        self.pending %= 8;
        let out = ((self.acc >> self.pending) as u64).to_be_bytes();
        self.bytes.extend_from_slice(&out[8 - whole..]);
    }

    fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }
}

/// MSB-first bit reader; returns `None` past the end.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // in bits
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|bit| bit == 1)
    }

    /// Reads `count` (≤ 64) bits, taking up to a byte's remaining bits
    /// per step.
    fn read_bits(&mut self, count: u8) -> Option<u64> {
        let mut v = 0u64;
        let mut left = u32::from(count);
        while left > 0 {
            let byte = *self.bytes.get(self.pos / 8)?;
            let offset = (self.pos % 8) as u32;
            let take = left.min(8 - offset);
            v = (v << take) | u64::from((byte << offset) >> (8 - take));
            self.pos += take as usize;
            left -= take;
        }
        Some(v)
    }
}

// ---------------------------------------------------------------------
// Chunk encode/decode.

/// One index entry: where a data chunk lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Series task index.
    pub task: u32,
    /// Series monitor index.
    pub monitor: u32,
    /// Series record kind.
    pub kind: RecordKind,
    /// Smallest tick in the chunk.
    pub min_tick: u64,
    /// Largest tick in the chunk.
    pub max_tick: u64,
    /// Byte offset of the chunk's frame within the segment.
    pub offset: u64,
    /// Records in the chunk.
    pub count: u32,
}

/// Encodes one series run (all records share a key, ticks
/// non-decreasing) into a data-chunk payload.
fn encode_chunk(records: &[Record]) -> Vec<u8> {
    debug_assert!(!records.is_empty() && records.len() <= MAX_CHUNK_RECORDS);
    let first = records[0];
    let mut payload = Vec::with_capacity(records.len() * 3 + 32);
    payload.push(TAG_DATA);
    payload.extend_from_slice(&first.task.to_le_bytes());
    payload.extend_from_slice(&first.monitor.to_le_bytes());
    payload.push(first.kind.as_u8());
    payload.extend_from_slice(&(records.len() as u32).to_le_bytes());

    // Tick stream: first raw, first delta, then delta-of-deltas.
    let mut ticks = Vec::with_capacity(records.len() + 8);
    put_varint(&mut ticks, first.tick);
    let mut prev_tick = first.tick;
    let mut prev_delta: Option<u64> = None;
    for r in &records[1..] {
        let delta = r.tick.saturating_sub(prev_tick);
        match prev_delta {
            None => put_varint(&mut ticks, delta),
            Some(pd) => put_signed_varint(&mut ticks, i128::from(delta) - i128::from(pd)),
        }
        prev_delta = Some(delta);
        prev_tick = r.tick;
    }
    payload.extend_from_slice(&(ticks.len() as u32).to_le_bytes());
    payload.extend_from_slice(&ticks);

    // Value stream: XOR bit packing.
    let mut bits = BitWriter::new();
    let mut prev = first.value.to_bits();
    bits.write_bits(prev, 64);
    for r in &records[1..] {
        let cur = r.value.to_bits();
        let xor = cur ^ prev;
        if xor == 0 {
            bits.write_bit(false);
        } else {
            let lz = xor.leading_zeros() as u8; // ≤ 63 since xor != 0
            let tz = xor.trailing_zeros() as u8;
            let meaningful = 64 - lz - tz; // ≥ 1
            bits.write_bit(true);
            bits.write_bits(u64::from(lz), 6);
            bits.write_bits(u64::from(meaningful - 1), 6);
            bits.write_bits(xor >> tz, meaningful);
        }
        prev = cur;
    }
    payload.extend_from_slice(&bits.into_bytes());
    payload
}

/// Decodes a data-chunk payload (tag byte included). `None` on any
/// malformation — never panics.
fn decode_chunk(payload: &[u8]) -> Option<Vec<Record>> {
    let mut cur = Cursor::new(payload);
    if cur.u8()? != TAG_DATA {
        return None;
    }
    let task = cur.u32()?;
    let monitor = cur.u32()?;
    let kind = RecordKind::from_u8(cur.u8()?)?;
    let count = cur.u32()? as usize;
    let tick_len = cur.u32()? as usize;
    // Every tick costs at least one byte, which bounds allocations from a
    // corrupt count that slipped past the CRC.
    if count == 0 || count > MAX_CHUNK_RECORDS || count > tick_len {
        return None;
    }
    let tick_bytes = cur.take(tick_len)?;
    let mut ticks = Cursor::new(tick_bytes);
    let mut tick_list = Vec::with_capacity(count);
    let first_tick = ticks.varint()?;
    tick_list.push(first_tick);
    let mut prev_tick = first_tick;
    let mut prev_delta: Option<i128> = None;
    for _ in 1..count {
        let delta = match prev_delta {
            None => i128::from(ticks.varint()?),
            Some(pd) => pd.checked_add(ticks.signed_varint()?)?,
        };
        if delta < 0 {
            return None;
        }
        prev_delta = Some(delta);
        prev_tick = prev_tick.checked_add(u64::try_from(delta).ok()?)?;
        tick_list.push(prev_tick);
    }

    let mut bits = BitReader::new(cur.remaining());
    let mut records = Vec::with_capacity(count);
    let mut prev = bits.read_bits(64)?;
    records.push(Record {
        task,
        monitor,
        kind,
        tick: tick_list[0],
        value: f64::from_bits(prev),
    });
    for &tick in &tick_list[1..] {
        if bits.read_bit()? {
            let lz = bits.read_bits(6)? as u8;
            let meaningful = bits.read_bits(6)? as u8 + 1;
            if u32::from(lz) + u32::from(meaningful) > 64 {
                return None;
            }
            let xor = bits.read_bits(meaningful)? << (64 - lz - meaningful);
            prev ^= xor;
        }
        records.push(Record {
            task,
            monitor,
            kind,
            tick,
            value: f64::from_bits(prev),
        });
    }
    Some(records)
}

/// Reads just enough of a data-chunk payload to build its index entry
/// (series key, tick bounds, count) — the rebuild path when the trailing
/// index is missing or corrupt.
fn chunk_entry(payload: &[u8], offset: u64) -> Option<ChunkEntry> {
    let records = decode_chunk(payload)?;
    let first = records.first()?;
    let last = records.last()?;
    Some(ChunkEntry {
        task: first.task,
        monitor: first.monitor,
        kind: first.kind,
        min_tick: first.tick,
        max_tick: last.tick,
        offset,
        count: records.len() as u32,
    })
}

// ---------------------------------------------------------------------
// Segment encode.

/// Appends one CRC frame.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A multiplicative hasher for the series keys of one seal: keys come
/// from the program's own records, so no flooding defence is needed.
#[derive(Default)]
struct SeriesHasher(u64);

impl Hasher for SeriesHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// `records` in [`Record::sort_key`] order, arrival order kept among
/// equal keys — what a stable sort yields — with no sort over all of
/// them: one pass numbers each record's series, each record then lands
/// in its series' next slot, and a series is sorted by tick only if it
/// arrived out of order.
fn seal_order(records: &[Record]) -> Vec<Record> {
    // Each series, numbered in first-seen order, with its record count.
    let mut ids: HashMap<SeriesKey, u32, BuildHasherDefault<SeriesHasher>> = HashMap::default();
    let mut series: Vec<(SeriesKey, usize)> = Vec::new();
    let id_of: Vec<u32> = records
        .iter()
        .map(|r| {
            let id = *ids.entry(r.key()).or_insert(series.len() as u32);
            if id as usize == series.len() {
                series.push((r.key(), 0));
            }
            series[id as usize].1 += 1;
            id
        })
        .collect();
    // Counts become each series' first slot, in key order, then advance
    // to its end.
    let mut order: Vec<u32> = (0..series.len() as u32).collect();
    order.sort_unstable_by_key(|&id| series[id as usize].0);
    let mut next = 0;
    for &id in &order {
        let slot = &mut series[id as usize].1;
        (*slot, next) = (next, next + *slot);
    }
    let mut sorted = records.to_vec();
    for (r, &id) in records.iter().zip(&id_of) {
        let slot = &mut series[id as usize].1;
        sorted[*slot] = *r;
        *slot += 1;
    }
    // Freed before a series' sort takes its scratch: the peak stays
    // within the record copy plus a full sort's scratch.
    drop(id_of);
    let mut start = 0;
    for &id in &order {
        let end = series[id as usize].1;
        let run = &mut sorted[start..end];
        if run.windows(2).any(|w| w[0].tick > w[1].tick) {
            run.sort_by_key(|r| r.tick);
        }
        start = end;
    }
    sorted
}

/// Encodes `records` into a complete segment: header, sorted data
/// chunks, trailing sparse index. Input order does not matter — records
/// are ordered by `(task, monitor, kind, tick)` first, which is what
/// makes concurrently-recorded runs byte-deterministic.
pub fn encode_segment(records: &[Record]) -> Vec<u8> {
    encode_sorted(&seal_order(records))
}

/// [`encode_segment`] of records already in [`seal_order`].
fn encode_sorted(sorted: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sorted.len() * 4 + 64);
    let mut header = Vec::with_capacity(9);
    header.push(TAG_HEADER);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    put_frame(&mut out, &header);

    let mut entries: Vec<ChunkEntry> = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let key = sorted[start].key();
        let mut end = start + 1;
        while end < sorted.len() && sorted[end].key() == key && end - start < MAX_CHUNK_RECORDS {
            end += 1;
        }
        let run = &sorted[start..end];
        let offset = out.len() as u64;
        put_frame(&mut out, &encode_chunk(run));
        entries.push(ChunkEntry {
            task: key.task,
            monitor: key.monitor,
            kind: key.kind,
            min_tick: run[0].tick,
            max_tick: run[run.len() - 1].tick,
            offset,
            count: run.len() as u32,
        });
        start = end;
    }

    let mut index = Vec::with_capacity(entries.len() * 37 + 5);
    index.push(TAG_INDEX);
    index.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in &entries {
        index.extend_from_slice(&e.task.to_le_bytes());
        index.extend_from_slice(&e.monitor.to_le_bytes());
        index.push(e.kind.as_u8());
        index.extend_from_slice(&e.min_tick.to_le_bytes());
        index.extend_from_slice(&e.max_tick.to_le_bytes());
        index.extend_from_slice(&e.offset.to_le_bytes());
        index.extend_from_slice(&e.count.to_le_bytes());
    }
    put_frame(&mut out, &index);
    out
}

// ---------------------------------------------------------------------
// Segment read path.

fn decode_index(payload: &[u8]) -> Option<Vec<ChunkEntry>> {
    let mut cur = Cursor::new(payload);
    if cur.u8()? != TAG_INDEX {
        return None;
    }
    let count = cur.u32()? as usize;
    // 37 bytes per entry bounds allocation by the payload length.
    if count > payload.len() / 37 + 1 {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(ChunkEntry {
            task: cur.u32()?,
            monitor: cur.u32()?,
            kind: RecordKind::from_u8(cur.u8()?)?,
            min_tick: cur.u64()?,
            max_tick: cur.u64()?,
            offset: cur.u64()?,
            count: cur.u32()?,
        });
    }
    Some(entries)
}

/// Decodes the chunk `entry` locates in `bytes`, a segment whose frames
/// [`SegmentReader::open`] has already CRC-checked: the entry's frame is
/// read as is. `None` on a malformed payload.
pub(crate) fn decode_entry(bytes: &[u8], entry: &ChunkEntry) -> Option<Vec<Record>> {
    let pos = usize::try_from(entry.offset).ok()?;
    let head = bytes.get(pos..pos + FRAME_OVERHEAD)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    let payload = bytes.get(pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len)?;
    decode_chunk(payload)
}

/// A decoded view over one segment's bytes: trusted chunk entries plus
/// lazy, zero-copy access to their payloads (chunk payloads are slices
/// into the segment buffer; nothing is materialized until a scan decodes
/// a matching chunk).
#[derive(Debug)]
pub struct SegmentReader<'a> {
    bytes: &'a [u8],
    entries: Vec<ChunkEntry>,
    truncated: bool,
}

impl<'a> SegmentReader<'a> {
    /// Opens a segment from raw bytes. Never panics: a torn or corrupted
    /// tail simply truncates the trusted prefix (`truncated()` reports
    /// it), garbage yields an empty reader.
    pub fn open(bytes: &'a [u8]) -> SegmentReader<'a> {
        // Pass 1: walk the CRC frames, stopping at the first bad one.
        let mut frames: Vec<(u64, &[u8])> = Vec::new();
        let mut pos = 0usize;
        let truncated;
        loop {
            let Some(head) = bytes.get(pos..pos + FRAME_OVERHEAD) else {
                truncated = pos != bytes.len();
                break;
            };
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            if len > MAX_CHUNK_LEN {
                truncated = true;
                break;
            }
            let Some(payload) = bytes.get(pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len) else {
                truncated = true;
                break;
            };
            if crc32(payload) != crc {
                truncated = true;
                break;
            }
            frames.push((pos as u64, payload));
            pos += FRAME_OVERHEAD + len;
        }

        // The header frame anchors trust: without it nothing is a record.
        let valid_header = frames.first().is_some_and(|(_, p)| {
            let mut cur = Cursor::new(p);
            cur.u8() == Some(TAG_HEADER)
                && cur.take(4) == Some(&MAGIC[..])
                && cur.u32().is_some_and(|v| v <= SEGMENT_VERSION)
        });
        if !valid_header {
            return SegmentReader {
                bytes,
                entries: Vec::new(),
                truncated: true,
            };
        }

        // Fast path: an intact trailing index whose offsets all point at
        // intact data frames. Otherwise rebuild from the chunks.
        let data_frames: Vec<(u64, &[u8])> = frames
            .iter()
            .skip(1)
            .filter(|(_, p)| p.first() == Some(&TAG_DATA))
            .map(|&(o, p)| (o, p))
            .collect();
        let indexed = (!truncated)
            .then(|| frames.last())
            .flatten()
            .and_then(|(_, p)| decode_index(p))
            .filter(|entries| {
                // Frames are walked in offset order: one search per entry.
                entries.iter().all(|e| {
                    data_frames
                        .binary_search_by_key(&e.offset, |&(o, _)| o)
                        .is_ok()
                })
            });
        let entries = match indexed {
            Some(entries) => entries,
            None => data_frames
                .iter()
                .filter_map(|&(offset, payload)| chunk_entry(payload, offset))
                .collect(),
        };
        SegmentReader {
            bytes,
            entries,
            truncated,
        }
    }

    /// The chunk index (stored or rebuilt).
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// Whether a torn/corrupt tail cut this segment short.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Total records across all trusted chunks.
    pub fn record_count(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.count)).sum()
    }

    /// Decodes the chunk behind `entry`; `None` if its payload is
    /// malformed (possible only via a colliding CRC or a lying index).
    pub fn decode_entry(&self, entry: &ChunkEntry) -> Option<Vec<Record>> {
        decode_entry(self.bytes, entry)
    }

    /// All trusted records, in `(task, monitor, kind, tick)` order.
    pub fn records(&self) -> Vec<Record> {
        self.entries
            .iter()
            .filter_map(|e| self.decode_entry(e))
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The bit-serial writer the codec shipped with: one bit per step,
    /// kept as the oracle for [`BitWriter`].
    struct RefBitWriter {
        bytes: Vec<u8>,
        used: u8,
    }

    impl RefBitWriter {
        fn write_bit(&mut self, bit: bool) {
            if self.used == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.len() - 1;
                self.bytes[last] |= 1 << (7 - self.used);
            }
            self.used = (self.used + 1) % 8;
        }

        fn write_bits(&mut self, value: u64, count: u8) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }
    }

    /// The bit-serial reader the codec shipped with, the oracle for
    /// [`BitReader`].
    struct RefBitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl RefBitReader<'_> {
        fn read_bit(&mut self) -> Option<bool> {
            let byte = self.bytes.get(self.pos / 8)?;
            let bit = (byte >> (7 - (self.pos % 8) as u8)) & 1 == 1;
            self.pos += 1;
            Some(bit)
        }

        fn read_bits(&mut self, count: u8) -> Option<u64> {
            let mut v = 0u64;
            for _ in 0..count {
                v = (v << 1) | u64::from(self.read_bit()?);
            }
            Some(v)
        }
    }

    /// One generated write: `width` 0 stands for a `write_bit` call.
    fn write_op(new: &mut BitWriter, reference: &mut RefBitWriter, (value, width): (u64, u8)) {
        if width == 0 {
            new.write_bit(value & 1 == 1);
            reference.write_bit(value & 1 == 1);
        } else {
            new.write_bits(value, width);
            reference.write_bits(value, width);
        }
    }

    /// Replays `ops` as reads; yields each read's result, stopping after
    /// the first `None`.
    fn read_ops(ops: &[(u64, u8)], mut read: impl FnMut(u8) -> Option<u64>) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for &(_, width) in ops {
            let got = read(width);
            out.push(got);
            if got.is_none() {
                break;
            }
        }
        out
    }

    proptest! {
        #[test]
        fn bit_codec_matches_the_bit_serial_reference(
            raw in prop::collection::vec((0..u64::MAX, 0u8..65, 0u8..4), 0..300),
        ) {
            // Bias widths small half the time, the shapes the value
            // stream writes most (flag bits, 6-bit headers).
            let ops: Vec<(u64, u8)> = raw
                .iter()
                .map(|&(v, w, bias)| (v, if bias < 2 { w % 8 } else { w }))
                .collect();
            let mut new = BitWriter::new();
            let mut reference = RefBitWriter { bytes: Vec::new(), used: 0 };
            for &op in &ops {
                write_op(&mut new, &mut reference, op);
            }
            let bytes = new.into_bytes();
            prop_assert_eq!(&bytes, &reference.bytes);

            let read = |bytes: &[u8]| {
                let mut bits = BitReader::new(bytes);
                read_ops(&ops, |w| match w {
                    0 => bits.read_bit().map(u64::from),
                    w => bits.read_bits(w),
                })
            };
            let read_ref = |bytes: &[u8]| {
                let mut bits = RefBitReader { bytes, pos: 0 };
                read_ops(&ops, |w| match w {
                    0 => bits.read_bit().map(u64::from),
                    w => bits.read_bits(w),
                })
            };
            // A write keeps the low `width` bits; `write_bit` the lowest.
            let expect: Vec<Option<u64>> = ops
                .iter()
                .map(|&(v, w)| Some(v & (u64::MAX >> (64 - u32::from(w.max(1))))))
                .collect();
            prop_assert_eq!(read(&bytes), expect);
            for cut in 0..bytes.len() {
                prop_assert_eq!(read(&bytes[..cut]), read_ref(&bytes[..cut]), "cut at {}", cut);
            }
        }
    }

    fn rec(monitor: u32, tick: u64, value: f64) -> Record {
        Record {
            task: 0,
            monitor,
            kind: RecordKind::Sample,
            tick,
            value,
        }
    }

    /// The bytewise CRC-32 the codec shipped with: one table lookup per
    /// byte, kept as the oracle for the slicing-by-8 [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = &CRC32_TABLES[0];
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// Little-endian bytes of `words`: random bytes from `u64` draws.
    fn bytes_of(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_reference(
            words in prop::collection::vec(0..u64::MAX, 514..515),
            len in 0usize..4097,
        ) {
            let bytes = bytes_of(&words);
            for start in 0..8 {
                let data = &bytes[start..start + len];
                prop_assert_eq!(crc32(data), crc32_bytewise(data), "start {} len {}", start, len);
            }
        }

        #[test]
        fn seal_order_matches_a_stable_sort(
            raw in prop::collection::vec((0u64..4, 0u64..6, 0u64..40, 0..u64::MAX), 0..600),
        ) {
            // Few series and few ticks: duplicate `(key, tick)` pairs,
            // out-of-order ticks, several tasks and kinds.
            let records: Vec<Record> = raw
                .iter()
                .map(|&(task, kind, tick, bits)| Record {
                    task: (task % 2) as u32,
                    monitor: (bits % 3) as u32,
                    kind: RecordKind::ALL[kind as usize],
                    tick,
                    value: f64::from_bits(bits),
                })
                .collect();
            let mut expect = records.clone();
            expect.sort_by_key(Record::sort_key);
            let got = seal_order(&records);
            let bits = |rs: &[Record]| -> Vec<_> {
                rs.iter().map(|r| (r.sort_key(), r.value.to_bits())).collect()
            };
            prop_assert_eq!(bits(&got), bits(&expect));
            // The seal used to encode exactly that sorted copy.
            prop_assert_eq!(encode_segment(&records), encode_sorted(&expect));
        }
    }

    #[test]
    fn crc32_matches_the_bytewise_reference_on_short_inputs() {
        let bytes: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(37) ^ 0xA5).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_multiple_series() {
        let mut records = Vec::new();
        for m in 0..3u32 {
            for t in 0..50u64 {
                records.push(rec(m, t * 5, (t as f64).sin() * 100.0 + f64::from(m)));
            }
        }
        let bytes = encode_segment(&records);
        let reader = SegmentReader::open(&bytes);
        assert!(!reader.truncated());
        assert_eq!(reader.entries().len(), 3);
        let mut expect = records.clone();
        expect.sort_by_key(Record::sort_key);
        assert_eq!(reader.records(), expect);
    }

    #[test]
    fn round_trips_special_values() {
        let values = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.0e-300,
        ];
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(t, &v)| rec(0, t as u64, v))
            .collect();
        let bytes = encode_segment(&records);
        let got = SegmentReader::open(&bytes).records();
        assert_eq!(got.len(), records.len());
        for (a, b) in got.iter().zip(&records) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "bit-exact values");
        }
    }

    #[test]
    fn steady_cadence_compresses_well() {
        // 1000 samples at a fixed interval with a slowly-drifting value:
        // the whole point of dod + XOR packing.
        let records: Vec<Record> = (0..1000u64).map(|t| rec(0, t * 4, 25.0)).collect();
        let bytes = encode_segment(&records);
        let raw = records.len() * 16; // tick + value, uncompressed
        assert!(
            bytes.len() * 4 < raw,
            "expected ≥4x compression, got {} vs {raw}",
            bytes.len()
        );
        assert_eq!(SegmentReader::open(&bytes).record_count(), 1000);
    }

    #[test]
    fn truncated_tail_keeps_prefix() {
        let records: Vec<Record> = (0..200u64)
            .map(|t| rec(t as u32 % 2, t, t as f64))
            .collect();
        let bytes = encode_segment(&records);
        let full = SegmentReader::open(&bytes).records();
        for cut in [bytes.len() - 1, bytes.len() / 2, 13, 0] {
            let reader = SegmentReader::open(&bytes[..cut]);
            let got = reader.records();
            assert!(got.len() <= full.len());
            // Whatever survives matches the full decode prefix per chunk.
            for r in &got {
                assert!(full.contains(r), "trusted record {r:?} must be real");
            }
        }
    }

    #[test]
    fn corrupt_index_falls_back_to_rebuild() {
        let records: Vec<Record> = (0..100u64).map(|t| rec(0, t, t as f64)).collect();
        let mut bytes = encode_segment(&records);
        // Flip a bit in the last frame (the index): its CRC fails, the
        // reader rebuilds entries from the data chunks.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let reader = SegmentReader::open(&bytes);
        assert!(reader.truncated());
        assert_eq!(reader.records().len(), 100);
    }

    /// 64-bit FNV-1a.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A fixed record set covering every shape the codec packs: six
    /// kinds over several series, special values, steady and jittered
    /// cadences, raw random bit patterns (full-width XORs) and one
    /// series longer than [`MAX_CHUNK_RECORDS`]. Integer arithmetic
    /// only, so it is the same on every host.
    fn golden_records() -> Vec<Record> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::MAX,
        ];
        let mut records = Vec::new();
        // Steady cadence, slowly drifting value, spanning two chunks.
        for i in 0..(MAX_CHUNK_RECORDS as u64 + 905) {
            let value = 20.0 + ((i / 7) % 40) as f64 * 0.25;
            records.push(Record {
                task: 0,
                monitor: 0,
                kind: RecordKind::Sample,
                tick: 3 * i,
                value,
            });
        }
        // Jittered cadence with special values and raw bit patterns.
        let mut tick = 10u64;
        for i in 0..700usize {
            tick += 1 + next() % 7;
            let value = match i % 4 {
                0 => specials[(i / 4) % specials.len()],
                1 => f64::from_bits(next()),
                _ => (next() % 1000) as f64 / 8.0,
            };
            records.push(Record {
                task: 1,
                monitor: 2,
                kind: RecordKind::PollSample,
                tick,
                value,
            });
        }
        for (n, kind) in RecordKind::ALL.into_iter().enumerate() {
            let monitor = if kind == RecordKind::Alert {
                crate::record::TASK_WIDE
            } else {
                5
            };
            for i in 0..(40 + 30 * n as u64) {
                let value = match kind {
                    RecordKind::Alert => 1.0 + (i % 2) as f64,
                    RecordKind::IntervalChange => (1 + next() % 8) as f64,
                    _ => (next() % 100_000) as f64 * 0.01,
                };
                records.push(Record {
                    task: 2,
                    monitor,
                    kind,
                    tick: i * (n as u64 + 1),
                    value,
                });
            }
        }
        records
    }

    #[test]
    fn segment_bytes_are_pinned() {
        let records = golden_records();
        let bytes = encode_segment(&records);
        let reader = SegmentReader::open(&bytes);
        assert!(reader.entries().len() > RecordKind::ALL.len() + 2);
        let got = reader.records();
        let mut expect = records.clone();
        expect.sort_by_key(Record::sort_key);
        assert_eq!(got.len(), expect.len());
        for (a, b) in got.iter().zip(&expect) {
            assert_eq!(
                (a.key(), a.tick, a.value.to_bits()),
                (b.key(), b.tick, b.value.to_bits())
            );
        }
        assert_eq!(
            (bytes.len(), fnv(&bytes)),
            (17_809, 0x9c6f_3b1f_a58b_9563),
            "sealed segment bytes moved (digest now {:#018x})",
            fnv(&bytes)
        );
    }

    #[test]
    fn garbage_never_panics_and_yields_nothing() {
        for src in [&b""[..], b"not a segment", &[0xFF; 64][..]] {
            let reader = SegmentReader::open(src);
            assert!(reader.records().is_empty());
        }
    }
}
