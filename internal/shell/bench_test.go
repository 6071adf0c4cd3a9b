package shell

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkRemoteMessage sends one 2 KiB message per op between two
// shells on different TORs and runs until it is acknowledged: the
// role's ER hop, LTL segmentation and reassembly, the fabric, the
// receiving ER hop and the handler. The ER messages and LTL buffers are
// reused once warm, so allocs/op counts what remains per message.
func BenchmarkRemoteMessage(b *testing.B) {
	s := sim.New(1)
	dc, shells := bed(s)
	dc.Host(0)
	dc.Host(5)
	src, dst := shells[0], shells[5]
	received := 0
	if err := dst.OpenRemoteRecv(3, 0, func([]byte) { received++ }); err != nil {
		b.Fatal(err)
	}
	if err := src.OpenRemoteSend(3, 5, 3); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 2<<10)
	acked := 0
	done := func() { acked++ }
	send := func() {
		src.SendRemote(3, payload, done)
		for want := acked + 1; acked < want; {
			if !s.Step() {
				b.Fatal("simulation drained before the message was acknowledged")
			}
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if received != acked {
		b.Fatalf("received %d of %d acknowledged messages", received, acked)
	}
}
