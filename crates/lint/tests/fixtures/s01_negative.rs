//! S01 negative fixture: senders that go through the seam, plus the
//! bookkeeping that may live anywhere (input events, coverage samples,
//! plain routing) and a test module poking `Metrics` directly.

impl Cluster {
    fn push_answer(&mut self, from: u64, to: u64, now: u64) {
        let how = self.send_hop(MsgClass::AggNotify, from, to);
        self.deliver(to, Effect::Answer, how, now);
    }

    fn locate(&mut self, from: u64, key: u64) -> u64 {
        let owner = self.ring.route(from, key).owner;
        if self.measuring {
            self.metrics.record_event(InputEvent::Query);
            self.metrics.record_coverage(1.0);
        }
        owner
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counters_add_up() {
        let mut m = Metrics::new();
        m.record_hops(MsgClass::Query, 2);
    }
}
