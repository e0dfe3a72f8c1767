//! D7 fixture: a library fn calls a name that only a `#[cfg(test)]`
//! helper defines. A library build compiles no test region, so the call
//! is the local closure's, and the panic the helper reaches must stay
//! off the public surface.

/// Public API with no reachable panic: `check` is its own closure.
pub fn count_positive(v: &[u32]) -> usize {
    let check = |x: u32| x > 0;
    v.iter().filter(|&&x| check(x)).count()
}

/// Panics on an empty slice; only the test helper calls it.
fn first(v: &[u32]) -> u32 {
    match v.first() {
        Some(&x) => x,
        None => panic!("first requires a non-empty slice"),
    }
}

#[cfg(test)]
mod tests {
    /// Shares the closure's name and panics through `first`.
    fn check(v: &[u32]) -> bool {
        super::first(v) > 0
    }
}
