// Unknown-marker gate: a marker must name a live dsilint rule.
pub struct Cluster;
impl Cluster {
    pub fn post_value(&mut self) {
        // dsilint: allow(no-such-rule, left behind when its rule moved to the compiler)
        let a = 1;
        let b = vec![a]; // dsilint: allow(hot-path-allc, setup only)
        // dsilint: allow(hot-path-alloc, setup only)
        let c = vec![a];
        eat(b, c);
    }
}
