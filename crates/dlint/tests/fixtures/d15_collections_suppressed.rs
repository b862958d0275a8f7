// D15 suppressed twin of the non-`push` calls.
pub struct Backlog {
    queue: VecDeque<FeedEvent>,
    batch: Vec<FeedPayload>,
    by_time: BTreeMap<SimTime, FeedEvent>,
}

impl Backlog {
    pub fn enqueue(&mut self, event: FeedEvent) {
        // dlint::allow(D15): fixture stand-in for a staging queue drained every watermark advance
        self.queue.push_back(event);
    }

    pub fn absorb(&mut self, events: &[FeedEvent]) {
        // dlint::allow(D15): fixture stand-in for a batch drained every watermark advance
        self.batch.extend(events.iter().map(|e| e.payload));
    }

    pub fn index(&mut self, event: FeedEvent) {
        // dlint::allow(D15): fixture stand-in for a map drained every watermark advance
        self.by_time.insert(event.at, event);
    }
}
