// Bioinformatics runs the Fig. 1a bioinformatics workload on the
// acceleration plane: Smith-Waterman read alignment on a local FPGA via
// PCIe, then on a *borrowed remote* FPGA over LTL — same results, a few
// microseconds apart.
package main

import (
	"fmt"
	"math/rand"

	configcloud "repro"
	"repro/internal/bioinfo"
)

func main() {
	cloud := configcloud.New(configcloud.Options{Seed: 11})
	local := cloud.Node(0)
	remote := cloud.Node(500) // a donated FPGA elsewhere in the pod

	cost := bioinfo.DefaultCostModel()
	sc := bioinfo.DefaultScoring()
	local.Shell.LoadRole(bioinfo.NewRole(cloud.Sim, cost, sc).HandleRequest)
	remoteRole := bioinfo.NewRole(cloud.Sim, cost, sc)
	remote.Shell.LoadRole(remoteRole.HandleRequest)

	rng := rand.New(rand.NewSource(7))
	ref := bioinfo.RandomSequence(rng, 2000)
	read := bioinfo.Mutate(rng, ref[700:828], 0.04) // a noisy 128-base read

	direct := bioinfo.Align(read, ref, sc)
	fmt.Printf("reference %d bases; read %d bases (4%% divergence)\n", len(ref), len(read))
	fmt.Printf("software alignment: score %d, ref end %d (true origin ~828)\n",
		direct.Score, direct.RefEnd)
	fmt.Printf("systolic-array speedup for this problem: %.0fx\n\n",
		cost.Speedup(len(read), len(ref)))

	// Local acceleration via PCIe.
	req := bioinfo.EncodeRequest(read, ref)
	t0 := cloud.Sim.Now()
	local.Shell.PCIeCall(req, func(resp []byte) {
		al, _ := bioinfo.DecodeResponse(resp)
		fmt.Printf("[%8v] local FPGA:  score %d, ref end %d\n", cloud.Sim.Now()-t0, al.Score, al.RefEnd)
	})
	cloud.Run(configcloud.Millisecond)

	// Remote acceleration via LTL: ship the request to the borrowed FPGA.
	check(remote.Shell.OpenRemoteRecv(3, local.ID, func(p []byte) {
		remoteRole.HandleRequest(p, func(resp []byte) {
			remote.Shell.SendRemote(4, resp, nil)
		})
	}))
	check(remote.Shell.OpenRemoteSend(4, local.ID, 4))
	t1 := cloud.Sim.Now()
	check(local.Shell.OpenRemoteRecv(4, remote.ID, func(resp []byte) {
		al, _ := bioinfo.DecodeResponse(resp)
		fmt.Printf("[%8v] remote FPGA: score %d, ref end %d (tier L%d away)\n",
			cloud.Sim.Now()-t1, al.Score, al.RefEnd, cloud.Tier(local.ID, remote.ID))
	}))
	check(local.Shell.OpenRemoteSend(3, remote.ID, 3))
	local.Shell.SendRemote(3, req, nil)
	cloud.Run(configcloud.Millisecond)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
