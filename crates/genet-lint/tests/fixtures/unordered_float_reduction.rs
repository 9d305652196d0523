// Fixture: unordered-float-reduction positives, negatives, allow cases.

pub fn positive_compound(n: usize) -> f64 {
    let mut total = 0.0f64;
    genet_par::par_map(n, |i| {
        total += i as f64; // POSITIVE line 6 — float accumulation across items
        i
    });
    total
}

pub fn positive_spawn(xs: &[f64], out: &mut f64) {
    scope(|s| {
        s.spawn(|_| {
            for x in xs {
                *out += *x; // POSITIVE line 16 — captured f64 accumulation in a spawn closure
            }
        });
    });
}

pub fn positive_sum(rows: &[f64], n: usize) -> Vec<f64> {
    genet_par::par_map(n, |_i| {
        let s: f64 = rows.iter().sum(); // POSITIVE line 24 — reduction over captured floats
        s
    })
}

pub fn negative_local_sum(n: usize) -> Vec<f64> {
    genet_par::par_map(n, |i| {
        let xs = vec![i as f64; 4];
        let s: f64 = xs.iter().sum(); // per-item serial reduction over a local
        s
    })
}

pub fn fold_rows_ordered(out: &mut [f64], row: &[f64]) {
    // No function name exempts a parallel closure from the rule.
    scope(|s| {
        s.spawn(|_| {
            out[0] += row[0] * 1.0; // POSITIVE line 41 — captured f64 accumulation in a spawn closure
        });
    });
}

pub fn allowed(n: usize) -> f32 {
    let mut acc = 0.0f32;
    genet_par::par_map(n, |i| {
        // genet-lint: allow(unordered-float-reduction) demo accumulator; value never reaches results
        acc += i as f32;
        i
    });
    acc
}

pub fn positive_sharded_sum(n: usize) -> f64 {
    let mut total = 0.0f64;
    genet_par::par_map_sharded(n, || (), |i, _| {
        total += i as f64; // POSITIVE line 59 — float accumulation across items
        i
    }, false);
    total
}

pub fn negative_sharded_local(n: usize) -> Vec<f64> {
    let (out, _) = genet_par::par_map_sharded(n, || vec![0.0f64; 4], |i, scratch| {
        let s: f64 = scratch.iter().sum(); // reduction over the worker's own scratch
        s + i as f64
    }, false);
    out
}

pub fn positive_mut_sum(items: &mut [f32], weights: &[f32]) {
    genet_par::par_map_mut_profiled(items, |_i, item| {
        let s: f32 = weights.iter().sum(); // POSITIVE line 75 — reduction over captured floats
        *item = s;
    }, false);
}

pub fn negative_mut_local_sum(items: &mut [Vec<f32>]) -> Vec<f32> {
    let (sums, _) = genet_par::par_map_mut_profiled(items, |_i, item| {
        let s: f32 = item.iter().sum(); // per-item reduction over the item itself
        s
    }, false);
    sums
}

#[cfg(test)]
mod tests {
    pub fn reduction_ok_in_tests(n: usize) {
        let mut acc = 0.0f32;
        genet_par::par_map(n, |i| {
            acc += i as f32;
            i
        });
    }
}
