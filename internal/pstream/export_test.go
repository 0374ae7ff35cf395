package pstream

// ClaimedCount reports how many claim records a KVBroker group
// subscription remembers for claims it won and has not acked, or -1 for
// any other subscription.
func ClaimedCount(sub Subscription) int {
	if s, ok := sub.(*kvGroupSub); ok {
		return len(s.claimed)
	}
	return -1
}

// TaskStrikes reports how many task-log offsets a worker pool is holding
// strikes for.
func TaskStrikes[Req, Res any](w *TaskWorkers[Req, Res]) int {
	w.strikeMu.Lock()
	defer w.strikeMu.Unlock()
	return len(w.strikes)
}
