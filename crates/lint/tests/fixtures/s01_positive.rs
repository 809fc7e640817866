//! S01 positive fixture: a sender that bills and traces its own message
//! instead of going through the send seam (linted under a `crates/core`
//! path other than `cluster/send.rs`) — one hit per offending line.

impl Cluster {
    fn push_answer(&mut self, from: u64, to: u64) {
        if self.measuring {
            self.metrics.record_message(MsgClass::AggNotify, from, to);
            self.tracer.single(MsgClass::AggNotify.index() as u8, from, to);
        }
        self.inbox.push(to);
    }
}
