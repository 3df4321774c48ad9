// Recovery: integrating a new clock into a running group (§3.2).
//
// Two replicas serve consistent clock reads; a third replica then joins with
// a physical clock 200 seconds in the future. The replication infrastructure
// transfers state at the GET_STATE synchronization point, and the consistent
// time service takes its special round of clock synchronization immediately
// before the checkpoint, so the newcomer's wild clock never disturbs the
// group clock: readings stay monotone and the newcomer answers consistently.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"time"

	"cts/internal/experiment"
)

func main() {
	res, err := experiment.RunRecovery(11, 200*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
}
