package rawiron

import (
	"time"

	"gq/internal/inmate"
)

// Backend adapts a raw-iron machine to the inmate life-cycle (implements
// gq/internal/inmate.Backend).
type Backend struct {
	Controller *Controller
	Machine    *Machine
	// CleanImage is what Revert reinstalls.
	CleanImage string
	// OnFail, when set, is told that a revert cannot complete — the
	// reimage could not be admitted or the breaker quarantined the box —
	// so the inmate is not left wedged in StateReverting forever. The
	// recycling pipeline uses this to drop the member from rotation.
	OnFail func(im *inmate.Inmate, err error)
}

// BootDelay implements inmate.Backend.
func (b *Backend) BootDelay() time.Duration { return bootDelay }

// Revert implements inmate.Backend: a full network reimaging cycle. From
// the gateway's viewpoint nothing distinguishes this from a VM snapshot
// revert except the time it takes. Transient hardware failures retry
// inside the controller; only a terminal failure reaches OnFail.
func (b *Backend) Revert(im *inmate.Inmate, done func()) {
	err := b.Controller.Reimage(b.Machine, b.CleanImage, func(err error) {
		if err != nil {
			if b.OnFail != nil {
				b.OnFail(im, err)
			}
			return
		}
		done()
	})
	if err != nil && b.OnFail != nil {
		b.OnFail(im, err)
	}
}
