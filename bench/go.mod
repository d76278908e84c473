module crowdwifi/bench

go 1.22

require crowdwifi v0.0.0

replace crowdwifi => ../
