//! One search allocates a fixed number of blocks, whatever the length of the
//! text. A counting global allocator (std only) counts the blocks one
//! `find_at` takes on a 3 KB and on a 30 KB text; the counts must be equal,
//! with and without a prefix, whether the pattern matches or not.
//!
//! Blocks are counted per thread: the test harness allocates on threads of
//! its own while a test runs.

use rematch::Regex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    BLOCKS.with(|b| b.set(b.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks allocated by one `find_at`, and whether it matched.
fn blocks(re: &Regex, text: &str) -> (usize, bool) {
    let before = BLOCKS.with(Cell::get);
    let found = re.find_at(text, 0).is_some();
    (BLOCKS.with(Cell::get) - before, found)
}

/// About `bytes` of b_eff_io-like table lines, then `tail`.
fn text(bytes: usize, tail: &str) -> String {
    let line = "  4 PEs 5   32776 rewrite   66.642   32.040   12.500\n";
    let mut t = line.repeat(bytes / line.len());
    t.push_str(tail);
    t
}

#[test]
fn one_search_allocates_the_same_on_3kb_as_on_30kb() {
    let patterns = [
        // With a prefix.
        r"Date of measurement: (.+)",
        // Without: a class first, then a repeat with captures.
        r"\s(\d+) PEs\s+(\d+)\s+(\d+)\s+(\w+)\s+([\d.]+)x",
        // Without: a branch first.
        r"(b_eff|B_EFF)_io\s*=\s*([\d.]+)",
    ];
    let tail = "Date of measurement: Tue Nov 23\n 4 PEs 2 1024 write 35.5x\nb_eff_io = 214.5\n";
    for pattern in patterns {
        let re = Regex::new(pattern).unwrap();
        for tail in ["", tail] {
            let small = blocks(&re, &text(3_000, tail));
            let large = blocks(&re, &text(30_000, tail));
            assert_eq!(small.1, !tail.is_empty(), "{pattern}");
            assert_eq!(small, large, "{pattern}: blocks on 3 KB vs 30 KB");
        }
    }
}
