//! The N-Queen placement of Algorithm 1 (lines 1-12): one S_PE per row,
//! no two sharing a column or diagonal.

/// Returns, for each row `r` of a `k × k` array, the column of its S_PE —
/// a deterministic solution (backtracking for small radixes, min-conflicts
/// local search for large ones; both yield the "fixed identification
/// pattern" of §IV). Returns `None` for the unsolvable radixes 2 and 3.
pub fn solve(k: usize) -> Option<Vec<usize>> {
    match k {
        0 => Some(Vec::new()),
        1 => Some(vec![0]),
        2 | 3 => None, // provably unsolvable
        _ if k < 8 => {
            let mut cols = Vec::with_capacity(k);
            backtrack(k, &mut cols).then_some(cols)
        }
        // Backtracking blows up around k ≈ 30 (the paper's 32 × 32 array);
        // deterministic min-conflicts converges in microseconds there.
        _ => Some(min_conflicts(k)),
    }
}

fn backtrack(k: usize, cols: &mut Vec<usize>) -> bool {
    if cols.len() == k {
        return true;
    }
    let row = cols.len();
    for c in 0..k {
        if can_place(cols, row, c) {
            cols.push(c);
            if backtrack(k, cols) {
                return true;
            }
            cols.pop();
        }
    }
    false
}

/// Deterministic min-conflicts local search (queens constrained to one per
/// row and one per column; swaps repair the diagonals). Always terminates:
/// restarts with a new seed until a valid placement is found — for k ≥ 4 a
/// solution always exists.
fn min_conflicts(k: usize) -> Vec<usize> {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    loop {
        // start from a random permutation: rows and columns already unique
        let mut cols: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            let j = (rand() % (i as u64 + 1)) as usize;
            cols.swap(i, j);
        }
        // diagonal occupancy counts
        let mut d1 = vec![0i32; 2 * k]; // row + col
        let mut d2 = vec![0i32; 2 * k]; // row − col + k
        for (r, &c) in cols.iter().enumerate() {
            d1[r + c] += 1;
            d2[r + k - c] += 1;
        }
        let conflicts =
            |r: usize, c: usize, d1: &[i32], d2: &[i32]| (d1[r + c] - 1) + (d2[r + k - c] - 1);
        let mut steps = 0usize;
        let budget = 60 * k;
        loop {
            // find a conflicted queen
            let start = (rand() % k as u64) as usize;
            let mut picked = None;
            for off in 0..k {
                let r = (start + off) % k;
                if conflicts(r, cols[r], &d1, &d2) > 0 {
                    picked = Some(r);
                    break;
                }
            }
            let Some(r1) = picked else {
                return cols; // no conflicts anywhere: solved
            };
            // swap with the partner that lowers total diagonal conflicts
            // most, scoring each candidate in place and undoing it
            let mut best: Option<(i32, usize)> = None;
            for r2 in 0..k {
                if r2 == r1 {
                    continue;
                }
                let (c1, c2) = (cols[r1], cols[r2]);
                let before = conflicts(r1, c1, &d1, &d2) + conflicts(r2, c2, &d1, &d2);
                swap_diagonals(&mut d1, &mut d2, k, (r1, c1), (r2, c2));
                let after = conflicts(r1, c2, &d1, &d2) + conflicts(r2, c1, &d1, &d2);
                swap_diagonals(&mut d1, &mut d2, k, (r1, c2), (r2, c1));
                let gain = before - after;
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, r2));
                }
            }
            if let Some((gain, r2)) = best {
                if gain > 0 || rand() % 8 == 0 {
                    swap_diagonals(&mut d1, &mut d2, k, (r1, cols[r1]), (r2, cols[r2]));
                    cols.swap(r1, r2);
                }
            }
            steps += 1;
            if steps > budget {
                break; // restart with a fresh permutation
            }
        }
    }
}

/// Moves the queens at `(r1, c1)` and `(r2, c2)` to `(r1, c2)` and
/// `(r2, c1)` in the diagonal counts `d1` (row + col) and `d2`
/// (row − col + k). Calling it again with the columns exchanged undoes
/// it.
fn swap_diagonals(
    d1: &mut [i32],
    d2: &mut [i32],
    k: usize,
    (r1, c1): (usize, usize),
    (r2, c2): (usize, usize),
) {
    d1[r1 + c1] -= 1;
    d2[r1 + k - c1] -= 1;
    d1[r2 + c2] -= 1;
    d2[r2 + k - c2] -= 1;
    d1[r1 + c2] += 1;
    d2[r1 + k - c2] += 1;
    d1[r2 + c1] += 1;
    d2[r2 + k - c1] += 1;
}

/// Algorithm 1's `canPlace`: column and both diagonals free.
pub fn can_place(cols: &[usize], row: usize, col: usize) -> bool {
    cols.iter()
        .enumerate()
        .all(|(r, &c)| c != col && r.abs_diff(row) != c.abs_diff(col))
}

/// Verifies a complete placement is mutually non-attacking.
pub fn is_valid(cols: &[usize]) -> bool {
    (0..cols.len()).all(|r| can_place(&cols[..r], r, cols[r]))
}

/// S_PE placement as linear PE ids on a `k × k` array. For the radixes
/// without an N-Queen solution (2, 3) the fallback places one S_PE per row
/// on distinct columns (the anti-diagonal), which still guarantees
/// row/column disjointness — only the diagonal rule is relaxed.
pub fn s_pe_positions(k: usize) -> Vec<usize> {
    match solve(k) {
        Some(cols) => cols.iter().enumerate().map(|(r, &c)| r * k + c).collect(),
        None => (0..k).map(|r| r * k + (k - 1 - r)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_small_cases() {
        assert_eq!(solve(0), Some(vec![]));
        assert_eq!(solve(1), Some(vec![0]));
        assert_eq!(solve(2), None);
        assert_eq!(solve(3), None);
        assert!(solve(4).is_some());
    }

    #[test]
    fn solutions_valid_up_to_16() {
        for k in [1, 4, 5, 6, 7, 8, 12, 16] {
            let s = solve(k).unwrap_or_else(|| panic!("no solution for {k}"));
            assert_eq!(s.len(), k);
            assert!(is_valid(&s), "invalid solution for {k}: {s:?}");
        }
    }

    #[test]
    fn paper_radix_32_solves() {
        let s = solve(32).expect("32 × 32 must solve");
        assert!(is_valid(&s));
    }

    #[test]
    fn positions_row_column_disjoint_even_in_fallback() {
        for k in [2, 3, 4, 8] {
            let pos = s_pe_positions(k);
            assert_eq!(pos.len(), k);
            let rows: std::collections::HashSet<_> = pos.iter().map(|p| p / k).collect();
            let cols: std::collections::HashSet<_> = pos.iter().map(|p| p % k).collect();
            assert_eq!(rows.len(), k, "k={k}: one S_PE per row");
            assert_eq!(cols.len(), k, "k={k}: one S_PE per column");
        }
    }

    #[test]
    fn can_place_detects_attacks() {
        assert!(!can_place(&[0], 1, 0), "same column");
        assert!(!can_place(&[0], 1, 1), "diagonal");
        assert!(can_place(&[0], 1, 2));
    }

    /// FNV-1a/64 of `s_pe_positions(k)` as little-endian `u32` ids.
    fn positions_digest(k: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in s_pe_positions(k) {
            for b in (p as u32).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// `positions_digest(k)` for k = 4..=64, recorded from the search
    /// that scored each candidate swap on cloned diagonal counts.
    const POSITION_DIGESTS: [u64; 61] = [
        0x7bd4b6674553f915,
        0x063281d4e64b61cb,
        0x686fa2bc21b45c06,
        0xe06a049333cf8121,
        0xfa933dbef2ed6225,
        0x3ce76a339932dd99,
        0x2a05eac6a19a1686,
        0x56d3d788ff14c7f3,
        0x5fe7119975ea6ccd,
        0xdb3f2d87838e25d3,
        0x6d814f3f10b44bc2,
        0x97e1d2b995ded241,
        0x59454ecf9638f4d5,
        0x7779a561c6b2d935,
        0x3003d9b81f8f5f6d,
        0x03a6b9e8d220d08f,
        0x684ebbef6a76557a,
        0x711cbe01f919e0f0,
        0xe9d9c7abe46efdd6,
        0x5f696c284405f525,
        0xb73f2dbfa0960af3,
        0x07cb53006e907d87,
        0x22444dcb9577488e,
        0x59f93dbc88bf98e9,
        0xb70aac0f1bba9d5e,
        0xa4cb87c089eff8b4,
        0x470118b3479c2dff,
        0x7669439b0ae758da,
        0xddbb0ccdc6353241,
        0xa09502abd3230838,
        0x0f5fd1f6ffe205b0,
        0x2be3268b870583eb,
        0x1e25873f8b7c3695,
        0xc943942ac0b8769e,
        0x59092575ccac06d2,
        0x870a9a1cdc291a16,
        0x4bdbdee21b1dfbf9,
        0x0bb597c974d9ed94,
        0x4cc0b412293069f0,
        0xd8ae9b7db1550a56,
        0xb27175d9414ded6f,
        0x0e2aaafa79d4d2e5,
        0x7ab8d2e65a8e1151,
        0xde8e24a6d83bc81c,
        0xe8ce7fcd5faf025b,
        0xa93e75e22f0bd0e0,
        0x22181e9d61cdd7b5,
        0x2d7bd841ae84b410,
        0x82f0fc31d6de415c,
        0x282203521df535ca,
        0x4855a755fa35c744,
        0x52bc2f6f5b8e2454,
        0x96ac24f085435fcc,
        0x9c80a1c44279c368,
        0x8fdf68cb56bb600e,
        0xc21a79588bee381f,
        0x57d38036cdd25a68,
        0x3bf029c09c8c0984,
        0x56795816f9f1941f,
        0x46eeadb28ce263ed,
        0x428f26558782d939,
    ];

    /// The placement is part of every degree-aware report, so the search
    /// must keep finding the same solution at every radix.
    #[test]
    fn s_pe_positions_are_pinned() {
        let now: Vec<u64> = (4..=64).map(positions_digest).collect();
        assert_eq!(
            now, POSITION_DIGESTS,
            "positions moved; digests now: {now:#x?}"
        );
    }

    proptest! {
        #[test]
        fn every_solution_is_nonattacking(k in 4usize..14) {
            let s = solve(k).unwrap();
            for i in 0..k {
                for j in (i + 1)..k {
                    prop_assert_ne!(s[i], s[j]);
                    prop_assert_ne!(j - i, s[i].abs_diff(s[j]));
                }
            }
        }
    }
}
