package obs

// Aborted reports how many spans were aborted.
func (r *MissRecorder) Aborted() uint64 { return r.abort }
