// Failover: the clock roll-back problem of §1, and how the consistent time
// service eliminates it.
//
// A passively replicated server answers clock reads. The backup's physical
// clock runs 5 seconds BEHIND the primary's. When the primary crashes:
//
//   - under the primary/backup baseline ([9], [3]) the next reading comes
//     from the new primary's raw clock and ROLLS BACK ≈5 seconds;
//
//   - under the consistent time service the new primary continues the group
//     clock from its offset, and the reading stays monotone.
//
//     go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"cts/internal/experiment"
)

func main() {
	res, err := experiment.RunRollback(7, -5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
}
