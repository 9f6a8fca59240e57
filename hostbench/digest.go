package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// defaultSeed is the seed whose digests are committed below.
const defaultSeed = 1

// committedDigests pins every virtual-time result of the default seed at
// fullSizes, per workload and stack. A change that only alters host cost
// must leave them untouched.
var committedDigests = map[string]string{
	"datapath/nfsv3": "bf17aafd19bd7eaa",
	"datapath/iscsi": "9adbaa892a19ff43",
	"metadata/nfsv3": "273dba00afc52671",
	"metadata/iscsi": "232875f7da0a1027",
	"cluster/nfsv3":  "15a628ed89fe334b",
	"cluster/iscsi":  "641160f89f744702",
}

// digest hashes one stack's virtual-time results: each phase's virtual
// elapsed time, protocol messages, disk operations and RPC calls.
func (sr *stackRun) digest() string {
	h := sha256.New()
	for _, p := range sr.phases {
		fmt.Fprintf(h, "%s %d %d %d %d\n", p.name, int64(p.elapsed), p.messages, p.diskOps, p.rpcCalls)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
