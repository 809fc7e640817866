//! S01 allow-marker fixture: a billing site outside the seam justified
//! with a reason.

impl Cluster {
    fn replay_recorded(&mut self, path: &[u64]) {
        // dsilint: allow(single-send-site, replays an already-judged path from a captured trace; nothing is sent)
        self.metrics.record_route(MsgClass::Query, MsgClass::QueryTransit, path);
    }
}
