//! A log as bytes, for the suites that take one apart: its frames, each
//! frame's record walked down to its count and length fields, and a log
//! holding every kind of record.

use sqldb::wal::frame_crc;
use sqldb::{Column, DataType, Engine, Schema, SyncPolicy, Value, WalOptions};
use std::path::Path;

/// Bytes of the log header: magic, version, first sequence number.
pub const HEADER: usize = 16;
/// Bytes of a frame header: length, sequence number, CRC.
pub const FRAME_HEADER: usize = 16;

/// One frame of a log: its sequence number, the offset of its header and
/// the length of its payload, which follows the header.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub seq: u64,
    pub at: usize,
    pub len: usize,
}

impl Frame {
    /// Where the payload starts in the log.
    pub fn payload_at(&self) -> usize {
        self.at + FRAME_HEADER
    }

    /// The payload in `log`.
    pub fn payload<'a>(&self, log: &'a [u8]) -> &'a [u8] {
        &log[self.payload_at()..self.payload_at() + self.len]
    }
}

/// The frames of an intact `log`, in order.
pub fn frames(log: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = HEADER;
    while at + FRAME_HEADER <= log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(log[at + 4..at + 12].try_into().unwrap());
        out.push(Frame { seq, at, len });
        at += FRAME_HEADER + len;
    }
    assert_eq!(at, log.len(), "a log of whole frames");
    out
}

/// Store `frame`'s CRC over its payload as `log` holds it now: what a
/// mutation of the payload must come with for the record reader, not the
/// frame check, to be what refuses it.
pub fn reseal(log: &mut [u8], frame: Frame) {
    let crc = frame_crc(frame.seq, frame.payload(log));
    log[frame.at + 12..frame.at + 16].copy_from_slice(&crc.to_le_bytes());
}

/// The count and length fields of a record — `(offset, width)` from the
/// start of its payload — for the record kinds that have any: every string
/// length, column count, row count and dictionary size.
pub fn count_fields(payload: &[u8]) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    // A string: its length field, then its bytes.
    let string = |fields: &mut Vec<(usize, usize)>, at: usize| {
        fields.push((at, 4));
        at + 4 + u32_at(at)
    };
    match payload.first() {
        Some(4) => {
            let mut at = string(&mut fields, 1) + 1;
            fields.push((at, 4));
            let columns = u32_at(at);
            at += 4;
            for _ in 0..columns {
                at = string(&mut fields, at) + 2;
            }
            assert_eq!(at, payload.len(), "a whole CREATE TABLE record");
        }
        Some(5) => {
            let mut at = string(&mut fields, 1);
            fields.push((at, 4));
            let columns = u32_at(at);
            let types = payload[at + 4..at + 4 + columns].to_vec();
            at += 4 + columns;
            fields.push((at, 8));
            let rows = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
            at += 8;
            for dtype in types {
                at += rows.div_ceil(64) * 8;
                match dtype {
                    2 => {
                        fields.push((at, 4));
                        let entries = u32_at(at);
                        at += 4;
                        for _ in 0..entries {
                            at = string(&mut fields, at);
                        }
                        at += 4 * rows;
                    }
                    3 => at += rows,
                    _ => at += 8 * rows,
                }
            }
            assert_eq!(at, payload.len(), "a whole INSERT record");
        }
        _ => {}
    }
    fields
}

/// A durable engine in `dir` whose log holds every kind of record: CREATE
/// TABLE (from SQL text and from a call, with IF NOT EXISTS too), INSERT
/// batches of every column type with NULLs (from SQL text, from a call, and
/// one of 70 rows, so that a null bitmap takes two words), a transaction's
/// frame group, and the statements the log carries as SQL text (UPDATE,
/// DELETE, CREATE INDEX, DROP TABLE). The writer logs no empty batch, so
/// the log holds none.
pub fn every_record_kind(dir: &Path) -> Engine {
    let opts = WalOptions::with_sync(SyncPolicy::Off);
    let (db, _) = Engine::open_durable(&dir.join("db.sql"), &dir.join("db.wal"), opts).unwrap();
    db.execute("CREATE TABLE t (i INTEGER NOT NULL, f FLOAT, s TEXT, b BOOLEAN, ts TIMESTAMP)")
        .unwrap();
    db.execute(
        "INSERT INTO t VALUES (1, 1.5, 'x', TRUE, 10), (2, NULL, NULL, NULL, NULL), \
         (3, -0.0, 'it''s', FALSE, -20)",
    )
    .unwrap();
    let p = Schema::new(vec![
        Column::not_null("k", DataType::Text),
        Column::new("v", DataType::Float),
    ])
    .unwrap();
    db.create_table("p", p).unwrap();
    let rows = (0..70).map(|i| {
        let v = if i % 9 == 4 {
            Value::Null
        } else {
            Value::Float(f64::from(i) / 4.0)
        };
        vec![Value::Text(format!("w{}", i % 7)), v]
    });
    db.insert_rows("p", rows.collect()).unwrap();
    let db = std::sync::Arc::new(db);
    let mut txn = db.begin_txn();
    txn.execute("INSERT INTO t VALUES (4, 4.5, 'four', NULL, 40)")
        .unwrap();
    txn.execute("UPDATE t SET f = 2.5 WHERE i = 1").unwrap();
    txn.commit().unwrap();
    db.execute("CREATE TABLE IF NOT EXISTS t (i INTEGER)")
        .unwrap();
    db.execute("DELETE FROM t WHERE i = 2").unwrap();
    db.execute("CREATE INDEX ix_t_s ON t (s)").unwrap();
    db.execute("CREATE TABLE gone (a BOOLEAN)").unwrap();
    db.execute("DROP TABLE gone").unwrap();
    db.wal_sync().unwrap();
    std::sync::Arc::try_unwrap(db).unwrap()
}
