package client

// NewIdemKeys lets client_test pin what minting a batch's keys costs.
var NewIdemKeys = newIdemKeys
