// Fixture: par-shared-mutable-capture positives, negatives, allow cases.
use std::sync::Mutex;

pub fn positive_mutation(n: usize) -> usize {
    let mut total = 0usize;
    genet_par::par_map(n, |i| {
        total += i; // POSITIVE line 7 — captured accumulator
        i
    });
    total
}

pub fn positive_interior(n: usize, log: &Mutex<Vec<usize>>) {
    genet_par::par_map(n, |i| {
        if let Ok(mut v) = log.lock() { // POSITIVE line 15 — interior mutability
            v.push(i);
        }
        i
    });
}

pub fn positive_mut_borrow(n: usize, acc: &mut [usize]) {
    genet_par::par_map_profiled(n, |i| {
        bump(&mut acc[i]); // POSITIVE line 24 — &mut into captured state
        i
    });
}

pub fn positive_push(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    genet_par::par_map(n, |i| {
        out.push(i); // POSITIVE line 32 — mutating method on captured receiver
        i
    });
    out
}

pub fn positive_captured_cell(n: usize) -> usize {
    let counter: std::cell::RefCell<usize> = std::cell::RefCell::new(0);
    genet_par::par_map(n, |i| {
        let c = &counter; // POSITIVE line 41 — RefCell capture by declared type
        c.borrow().checked_add(i).unwrap_or(0)
    });
    0
}

pub fn negative_local_state(n: usize, weights: &[u64]) -> Vec<u64> {
    genet_par::par_map(n, |i| {
        let mut local = 0u64;
        local += weights[i]; // per-item local accumulation: serial and fine
        local
    })
}

pub fn negative_spawn_engine(slots: &mut [usize]) {
    // `spawn` closures are the engine's internals (disjoint &mut slots);
    // the capture rule polices the public par_map* API only.
    scope(|s| {
        s.spawn(|_| {
            slots[0] = 1;
        });
    });
}

pub fn allowed(n: usize) -> Vec<usize> {
    let mut hits = vec![0usize; n];
    genet_par::par_map(n, |i| {
        // genet-lint: allow(par-shared-mutable-capture) slots are disjoint per index; proven by thread_invariance
        hits[i] += 1;
        i
    });
    hits
}

pub fn positive_sharded(n: usize) -> usize {
    let mut calls = 0usize;
    genet_par::par_map_sharded(n, || 0u64, |i, _scratch| {
        calls += 1; // POSITIVE line 78 — captured counter in a sharded map
        i
    });
    calls
}

pub fn negative_sharded_scratch(n: usize) -> Vec<u64> {
    let (out, _) = genet_par::par_map_sharded(n, || vec![0u64; 4], |i, scratch| {
        scratch[0] = i as u64; // the per-worker scratch is the closure's own
        scratch[0]
    }, false);
    out
}

pub fn positive_mut_items(items: &mut [u64], seen: &mut Vec<usize>) {
    genet_par::par_map_mut_profiled(items, |i, item| {
        *item += 1;
        seen.push(i); // POSITIVE line 95 — mutating method on captured receiver
    }, false);
}

pub fn negative_mut_items(items: &mut [u64]) {
    genet_par::par_map_mut_profiled(items, |i, item| {
        *item += i as u64; // the element handed to this index: disjoint by construction
    }, false);
}

#[cfg(test)]
mod tests {
    pub fn capture_ok_in_tests(n: usize) {
        let mut total = 0usize;
        genet_par::par_map(n, |i| {
            total += i;
            i
        });
    }
}
