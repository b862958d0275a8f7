// D15: feed events entering a collection by a call other than `push`.
pub struct Backlog {
    queue: VecDeque<FeedEvent>,
    batch: Vec<FeedPayload>,
    by_time: BTreeMap<SimTime, FeedEvent>,
}

impl Backlog {
    pub fn enqueue(&mut self, event: FeedEvent) {
        self.queue.push_back(event);
    }

    pub fn absorb(&mut self, events: &[FeedEvent]) {
        self.batch.extend(events.iter().map(|e| e.payload));
    }

    pub fn index(&mut self, event: FeedEvent) {
        self.by_time.insert(event.at, event);
    }
}
