//! The banded reference edit distance the diagonal-transition kernel is
//! pinned to.
//!
//! This is the original `correct::edit_distance`: the common
//! prefix/suffix strip, then a banded Levenshtein DP whose corridor
//! doubles until the corner value fits inside it — O(n·d) on every
//! input — kept as an executable specification. The root
//! `distance_equivalence` suite asserts that
//! [`disengage_ocr::correct::edit_distance`] returns the same integer on
//! every pipeline filing, chaos-perturbed documents, periodic text and
//! the degenerate cases. It lives in test code because no production
//! path runs it.

/// Levenshtein edit distance between two strings (by `char`), by band
/// doubling.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let mut ai = a.chars();
    let mut bi = b.chars();
    loop {
        let (ar, br) = (ai.as_str(), bi.as_str());
        match (ai.next(), bi.next()) {
            (Some(x), Some(y)) if x == y => continue,
            _ => {
                ai = ar.chars();
                bi = br.chars();
                break;
            }
        }
    }
    loop {
        let (ar, br) = (ai.as_str(), bi.as_str());
        match (ai.next_back(), bi.next_back()) {
            (Some(x), Some(y)) if x == y => continue,
            _ => {
                ai = ar.chars();
                bi = br.chars();
                break;
            }
        }
    }
    let b: Vec<char> = bi.collect();
    let la = ai.clone().count();
    if la == 0 {
        return b.len();
    }
    if b.is_empty() {
        return la;
    }
    let longest = la.max(b.len());
    let mut band = la.abs_diff(b.len()).max(1);
    loop {
        if let Some(d) = banded_distance(ai.clone(), la, &b, band) {
            return d;
        }
        band = (band * 2).min(longest);
    }
}

/// Banded Levenshtein: the exact distance between `a` (a char stream of
/// length `la`) and `b` when it is at most `band`, else `None`. Only DP
/// cells within `band` of the main diagonal are computed; an optimal
/// path for a distance `≤ band` cannot leave that corridor, so the
/// corridor value at the corner is the true distance whenever it comes
/// out `≤ band`.
fn banded_distance<I>(a: I, la: usize, b: &[char], band: usize) -> Option<usize>
where
    I: Iterator<Item = char>,
{
    let lb = b.len();
    if la.abs_diff(lb) > band {
        return None;
    }
    // Out-of-corridor cells read as INF; `/2` leaves room for the +1s.
    const INF: usize = usize::MAX / 2;
    // Row `i` holds DP cells `j` in `[i − band, i + band]` at index
    // `j + band − i`; the `+ 2` width leaves a permanently-INF slot past
    // the right flank so the recurrence can read one cell beyond the
    // corridor unguarded.
    let width = 2 * band + 2;
    let mut prev: Vec<usize> = vec![INF; width];
    let mut curr: Vec<usize> = vec![INF; width];
    for (j, p) in prev
        .iter_mut()
        .skip(band)
        .take(lb.min(band) + 1)
        .enumerate()
    {
        *p = j;
    }
    for (i1, ca) in a.enumerate() {
        let i = i1 + 1;
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(lb);
        curr.fill(INF);
        if lo == 0 {
            // Column 0 of row `i` sits at index `band − i`.
            curr[band - i] = i;
        }
        for j in lo.max(1)..=hi {
            // (i−1, j) is this index + 1 in `prev`; (i−1, j−1) is the
            // same index in `prev`; (i, j−1) is the index below in
            // `curr` — INF at index 0, the corridor's left edge.
            let idx = j + band - i;
            let cost = usize::from(ca != b[j - 1]);
            let left = if idx == 0 { INF } else { curr[idx - 1] };
            curr[idx] = (prev[idx + 1] + 1).min(left + 1).min(prev[idx] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[lb + band - la];
    (d <= band).then_some(d)
}
