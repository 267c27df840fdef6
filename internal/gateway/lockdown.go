package gateway

// Fail-closed lockdown: the router's last line of defence when the
// containment plane can no longer adjudicate (DESIGN.md §3f). While
// engaged, every live flow is resolved through the fail-close path —
// initiators reset, containment legs torn down, SYN tombstones laid so
// retransmissions cannot re-admit a flow under its audited ISN — and the
// three flow-creation sites (inmate-originated TCP and UDP, NAT-inbound)
// drop instead of admitting. Heartbeat probes still flow: they are
// crafted below the flow table (sendToVLAN) and echoes demultiplex by
// probe port before flow lookup, so the supervisor can observe a
// containment server recovering inside a locked-down subfarm.

// SetLockdown engages or releases fail-closed lockdown. On engage it
// fail-closes every live flow (in five-tuple order, so bulk teardown is
// deterministic) and returns how many were resolved; flows already
// carrying a Drop verdict are closed in place — no reset needed, the
// verdict already holds. On release it simply reopens admission: flows
// never survive a lockdown, so there is nothing to restore. Idempotent;
// runs on the router's domain goroutine like all flow state.
func (r *Router) SetLockdown(on bool, reason string) int {
	if r.lockdown == on {
		return 0
	}
	r.lockdown = on
	if !on {
		return 0
	}
	doomed := r.liveFlows(func(f *Flow) bool { return f.state != fsClosed })
	for _, f := range doomed {
		if f.state == fsDropped {
			f.close("lockdown")
		} else {
			f.failClose(reason)
		}
	}
	return len(doomed)
}

// LockedDown reports whether fail-closed lockdown is engaged.
func (r *Router) LockedDown() bool { return r.lockdown }

// lockdownDrop is the admission gate at every flow-creation site.
func (r *Router) lockdownDrop() bool {
	if !r.lockdown {
		return false
	}
	r.LockdownDrops.Inc()
	return true
}
