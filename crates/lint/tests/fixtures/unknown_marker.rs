// Unknown-marker gate: a marker must name a live dsilint rule.
use std::collections::HashMap;

pub fn f(queries: &HashMap<u64, u32>) -> u32 {
    // dsilint: allow(no-such-rule, left behind when its rule moved to the compiler)
    let a = 1;
    let b = queries.values().sum::<u32>(); // dsilint: allow(unorderd-iter, commutative sum)
    // dsilint: allow(unordered-iter, commutative sum)
    let c = queries.values().sum::<u32>();
    a + b + c
}
