//! The database file's tail (DESIGN.md §4i): a command's writes appended
//! behind the checkpoint image as one log unit, read back as a log is read.
//! A cut anywhere in a unit loads the state before it or after it; a flipped
//! byte cuts the tail at its unit; the next append lands where a torn unit
//! began; a second writer is refused and writes nothing, and so is the
//! checkpoint of a durable engine whose file another command wrote; a unit
//! that does not replay refuses the load; a file the parent wrote takes a
//! tail as it is.

use sqldb::{Engine, Saved, Value, WalOptions};
use std::path::{Path, PathBuf};

/// A fresh directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perfbase_file_tail_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Checkpoint at `path` an image large enough that a small unit appends:
/// table `t` of 3 000 rows, and `m`, empty.
fn base(path: &Path) {
    let e = Engine::new();
    e.execute_script("CREATE TABLE t (i INTEGER NOT NULL, s TEXT); CREATE TABLE m (j INTEGER)")
        .unwrap();
    let rows = (0..3_000).map(|i| vec![Value::Int(i), Value::Text(format!("w{}", i % 7))]);
    e.insert_rows("t", rows.collect()).unwrap();
    e.checkpoint(path).unwrap();
}

/// Append unit `j` to the file at `path`: one INSERT into `m` for an even
/// `j` (a unit of one frame), and for an odd one a group — that INSERT, an
/// INSERT into `t`, an UPDATE and a new table. Returns the bytes appended.
fn append(path: &Path, j: i64) -> u64 {
    let e = Engine::open_file(path).unwrap();
    e.execute(&format!("INSERT INTO m VALUES ({j})")).unwrap();
    if j % 2 == 1 {
        e.execute(&format!("INSERT INTO t VALUES ({}, 'unit{j}')", 10_000 + j))
            .unwrap();
        e.execute(&format!("UPDATE t SET s = 'upd{j}' WHERE i = {j}"))
            .unwrap();
        e.execute(&format!("CREATE TABLE u{j} (x FLOAT)")).unwrap();
    }
    match e.save_file().unwrap() {
        Saved::Appended(bytes) => bytes,
        other => panic!("unit {j}: {other:?}"),
    }
}

/// The catalog the file at `path` loads to, as SQL text.
fn state(path: &Path) -> String {
    Engine::load_from_file(path).unwrap().dump_sql()
}

/// The values of `m` the file at `path` loads to, in order.
fn units(path: &Path) -> Vec<i64> {
    let e = Engine::load_from_file(path).unwrap();
    let rows = e.query("SELECT j FROM m ORDER BY j").unwrap();
    rows.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
}

/// The base image and three units appended, one at a time: the file's
/// bytes, where each unit ends (the image's end first) and the state after
/// each.
fn three_units(path: &Path) -> (Vec<u8>, Vec<usize>, Vec<String>) {
    base(path);
    let mut ends = vec![std::fs::metadata(path).unwrap().len() as usize];
    let mut states = vec![state(path)];
    for j in 0..3 {
        let before = std::fs::read(path).unwrap();
        append(path, j);
        let after = std::fs::read(path).unwrap();
        assert!(after.starts_with(&before), "unit {j} rewrote the file");
        ends.push(after.len());
        states.push(state(path));
    }
    (std::fs::read(path).unwrap(), ends, states)
}

#[test]
fn every_cut_of_an_appended_unit_loads_the_state_before_or_after_it() {
    let dir = scratch("cuts");
    let path = dir.join("db.ckpt");
    let (bytes, ends, states) = three_units(&path);
    let cut_path = dir.join("cut.ckpt");
    for cut in ends[0]..=bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        let whole = ends.iter().rposition(|&end| end <= cut).unwrap();
        assert!(state(&cut_path) == states[whole], "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The frames of the tail of `bytes`, which begins at `image`: each
/// frame's offset and payload length.
fn frames(bytes: &[u8], image: usize) -> Vec<(usize, usize)> {
    let mut at = image + 16;
    let mut out = Vec::new();
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        out.push((at, len));
        at += 16 + len;
    }
    assert_eq!(at, bytes.len());
    out
}

/// A flipped byte anywhere in a unit's frames cuts the tail where the unit
/// begins: the frame no longer validates, and nothing behind it is applied.
/// With the CRC resealed over a flipped payload the frame validates; the
/// load does not panic, and what it applies is a prefix of the units: never
/// a unit behind one it left out.
#[test]
fn a_flipped_tail_byte_applies_no_bad_frame_and_nothing_behind_a_cut() {
    let dir = scratch("flips");
    let path = dir.join("db.ckpt");
    let (bytes, ends, states) = three_units(&path);
    let flipped_path = dir.join("flipped.ckpt");
    let frames = frames(&bytes, ends[0]);
    for at in ends[0] + 16..bytes.len() {
        let unit = ends.iter().rposition(|&end| end <= at).unwrap();
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x5a;
        std::fs::write(&flipped_path, &flipped).unwrap();
        assert!(state(&flipped_path) == states[unit], "flip at byte {at}");

        let &(frame, len) = frames.iter().rfind(|(start, _)| *start <= at).unwrap();
        if at < frame + 16 {
            continue;
        }
        let seq = u64::from_le_bytes(flipped[frame + 4..frame + 12].try_into().unwrap());
        let crc = sqldb::wal::frame_crc(seq, &flipped[frame + 16..frame + 16 + len]);
        flipped[frame + 12..frame + 16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&flipped_path, &flipped).unwrap();
        let Ok(e) = Engine::load_from_file(&flipped_path) else {
            continue;
        };
        let Ok(rows) = e.query("SELECT j FROM m ORDER BY j") else {
            continue;
        };
        let got: Vec<i64> = rows.rows().iter().filter_map(|r| r[0].as_i64()).collect();
        for j in 0..unit as i64 {
            assert!(
                got.contains(&j),
                "resealed flip at byte {at}: unit {j} lost"
            );
        }
        let behind: Vec<bool> = (unit as i64 + 1..3).map(|j| got.contains(&j)).collect();
        assert!(
            behind.iter().all(|&b| b) || behind.iter().all(|&b| !b),
            "resealed flip at byte {at}: {got:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn after_a_torn_tail_the_next_append_lands_where_the_torn_unit_began() {
    let dir = scratch("torn");
    let path = dir.join("db.ckpt");
    let (bytes, ends, _) = three_units(&path);
    // Unit 2 torn half-way, as a crash in its write leaves it.
    let torn = (ends[2] + ends[3]) / 2;
    std::fs::write(&path, &bytes[..torn]).unwrap();
    assert_eq!(units(&path), [0, 1]);
    let appended = append(&path, 3) as usize;
    let now = std::fs::read(&path).unwrap();
    assert_eq!(now.len(), ends[2] + appended);
    assert_eq!(now[..ends[2]], bytes[..ends[2]]);
    assert_eq!(units(&path), [0, 1, 3]);
    // The header torn: the next append writes it again.
    std::fs::write(&path, &bytes[..ends[0] + 5]).unwrap();
    assert_eq!(units(&path), Vec::<i64>::new());
    append(&path, 4);
    assert_eq!(units(&path), [4]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_second_writer_is_refused_and_leaves_the_file_byte_identical() {
    let dir = scratch("refused");
    let path = dir.join("db.ckpt");
    base(&path);
    let (first, second) = (
        Engine::open_file(&path).unwrap(),
        Engine::open_file(&path).unwrap(),
    );
    first.execute("INSERT INTO m VALUES (1)").unwrap();
    assert!(matches!(first.save_file(), Ok(Saved::Appended(_))));
    let bytes = std::fs::read(&path).unwrap();
    // An append and a rewrite alike: neither writes a byte.
    second.execute("INSERT INTO m VALUES (2)").unwrap();
    let err = second.save_file().unwrap_err().to_string();
    assert!(
        err.contains("changed since this command loaded it"),
        "{err}"
    );
    let rows = (0..2_000).map(|i| vec![Value::Int(i)]);
    second.insert_rows("m", rows.collect()).unwrap();
    assert!(second.save_file().is_err());
    assert!(std::fs::read(&path).unwrap() == bytes);
    assert!(!dir.join("db.ckpt.tmp").exists());
    // The first writer goes on: its load is the file as it is.
    first.execute("INSERT INTO m VALUES (3)").unwrap();
    assert!(matches!(first.save_file(), Ok(Saved::Appended(_))));
    assert_eq!(units(&path), [1, 3]);
    // Nothing accepted, nothing written.
    let before = std::fs::read(&path).unwrap();
    let idle = Engine::open_file(&path).unwrap();
    idle.query("SELECT count(*) FROM m").unwrap();
    assert!(idle.execute("INSERT INTO nope VALUES (1)").is_err());
    assert_eq!(idle.save_file().unwrap(), Saved::Unchanged);
    assert!(std::fs::read(&path).unwrap() == before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A unit that would take the tail past a twelfth of the image rewrites the
/// image instead, with no tail behind it: the bytes a checkpoint of the
/// same catalog writes.
#[test]
fn a_tail_past_its_share_of_the_image_rewrites_it() {
    let dir = scratch("share");
    let path = dir.join("db.ckpt");
    base(&path);
    append(&path, 0);
    let e = Engine::open_file(&path).unwrap();
    let rows = (0..2_000).map(|i| vec![Value::Int(i)]);
    e.insert_rows("m", rows.collect()).unwrap();
    assert_eq!(e.save_file().unwrap(), Saved::Rewritten);
    let image = dir.join("image.ckpt");
    Engine::load_from_file(&path)
        .unwrap()
        .checkpoint(&image)
        .unwrap();
    assert!(std::fs::read(&path).unwrap() == std::fs::read(&image).unwrap());
    // The same engine saves on, behind the image it wrote.
    e.execute("INSERT INTO m VALUES (-1)").unwrap();
    assert!(matches!(e.save_file(), Ok(Saved::Appended(_))));
    assert_eq!(units(&path).len(), 2_002);
    std::fs::remove_dir_all(&dir).ok();
}

/// The typed checkpoint the first typed build wrote loads as before, and a
/// copy of it is rewritten by its first save — too small an image to take
/// that tail — and then takes appends behind the image it was rewritten to.
#[test]
fn the_parent_checkpoint_fixture_loads_as_before_and_takes_a_tail() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint/db.ckpt");
    let (oracle, stamp) = Engine::load_checkpoint(&fixture).unwrap();
    let dir = scratch("fixture");
    let path = dir.join("db.ckpt");
    std::fs::copy(&fixture, &path).unwrap();
    assert_eq!(state(&path), oracle.dump_sql());
    let grow = "CREATE TABLE big (k INTEGER)";
    let rows: Vec<_> = (0..2_000).map(|k| vec![Value::Int(k)]).collect();
    let e = Engine::open_file(&path).unwrap();
    e.execute(grow).unwrap();
    e.insert_rows("big", rows.clone()).unwrap();
    assert_eq!(e.save_file().unwrap(), Saved::Rewritten);
    oracle.execute(grow).unwrap();
    oracle.insert_rows("big", rows).unwrap();
    let image = std::fs::read(&path).unwrap();
    let e = Engine::open_file(&path).unwrap();
    e.execute("INSERT INTO big VALUES (-1)").unwrap();
    assert!(matches!(e.save_file(), Ok(Saved::Appended(_))));
    oracle.execute("INSERT INTO big VALUES (-1)").unwrap();
    assert!(std::fs::read(&path).unwrap().starts_with(&image));
    let (back, back_stamp) = Engine::load_checkpoint(&path).unwrap();
    assert_eq!(back.dump_sql(), oracle.dump_sql());
    assert_eq!(back_stamp, stamp, "the rewrite keeps the stamp");
    std::fs::remove_dir_all(&dir).ok();
}

/// What follows the image is a tail only when it opens with the tail's
/// header: a table count one short leaves the last table behind the image,
/// and the load refuses it, naming the offset, instead of reading it as a
/// torn tail and dropping the table.
#[test]
fn tables_behind_a_short_table_count_are_no_tail() {
    let dir = scratch("count");
    let path = dir.join("db.ckpt");
    base(&path);
    let mut bytes = std::fs::read(&path).unwrap();
    let count = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    bytes[20..24].copy_from_slice(&(count - 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = Engine::load_from_file(&path).err().unwrap().to_string();
    assert!(err.contains("bytes after the last table"), "{err}");
    assert!(Engine::open_file(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint to the file a durable engine was opened from is refused,
/// with nothing written and the log kept, once another command appended
/// to the file; its own checkpoints, one after another, go through.
#[test]
fn a_checkpoint_is_refused_once_another_command_wrote_the_file() {
    let dir = scratch("ckpt_refused");
    let (path, log) = (dir.join("db.ckpt"), dir.join("db.wal"));
    base(&path);
    let (durable, _) = Engine::open_durable(&path, &log, WalOptions::default()).unwrap();
    durable.execute("INSERT INTO m VALUES (7)").unwrap();
    append(&path, 0);
    let bytes = std::fs::read(&path).unwrap();
    let err = durable.checkpoint(&path).unwrap_err().to_string();
    assert!(err.contains("nothing was written"), "{err}");
    assert!(std::fs::read(&path).unwrap() == bytes);
    assert!(!dir.join("db.ckpt.tmp").exists());
    drop(durable);
    let (durable, report) = Engine::open_durable(&path, &log, WalOptions::default()).unwrap();
    assert_eq!(report.frames_replayed, 1, "the log kept the write");
    durable.checkpoint(&path).unwrap();
    durable.execute("INSERT INTO m VALUES (8)").unwrap();
    durable.checkpoint(&path).unwrap();
    assert_eq!(units(&path), [0, 7, 8]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A unit whose frames are whole and pass their CRC but do not replay onto
/// what precedes them — an INSERT into a table the image lacks — refuses
/// the load, naming the unit: a load that went on without it would let the
/// next save seal the loss into the file.
#[test]
fn a_tail_unit_that_does_not_replay_refuses_the_load() {
    let dir = scratch("no_replay");
    let (with_m, without_m) = (dir.join("with.ckpt"), dir.join("without.ckpt"));
    base(&with_m);
    let image = std::fs::metadata(&with_m).unwrap().len() as usize;
    append(&with_m, 0);
    let tail = std::fs::read(&with_m).unwrap()[image..].to_vec();
    let e = Engine::load_from_file(&with_m).unwrap();
    e.execute("DROP TABLE m").unwrap();
    e.checkpoint(&without_m).unwrap();
    let mut bytes = std::fs::read(&without_m).unwrap();
    let at = bytes.len() + 16;
    bytes.extend_from_slice(&tail);
    std::fs::write(&without_m, &bytes).unwrap();
    let err = Engine::load_from_file(&without_m)
        .err()
        .unwrap()
        .to_string();
    assert!(
        err.contains(&format!("unit of frame 1 (byte {at}) does not replay")),
        "{err}"
    );
    assert!(Engine::open_file(&without_m).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
