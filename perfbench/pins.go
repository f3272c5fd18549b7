// Code generated by "perfbench --pins"; DO NOT EDIT.

package main

// pins holds every data point's simulated IMB result (AvgTime, MinTime,
// MaxTime as float64 bits) at paper scale. A run whose result differs in
// any bit counts that point as failed.
var pins = map[string][3]uint64{
	"parapluie/n32/allgather/hierknem/64KB": {0x3fb0bf1c93e95857, 0x3fb0bd96d4f28ff8, 0x3fb0c22811d6e809}, // avg 0.0654161321 s
	"parapluie/n32/allgather/tuned/64KB":    {0x3fb0bf1c93e95857, 0x3fb0bd96d4f28ff8, 0x3fb0c22811d6e809}, // avg 0.0654161321 s
	"stremi/n32/bcast/hierarch/2KB":         {0x3f48bb964c3ac9bf, 0x3f48bb964c3ac9a0, 0x3f48bb964c3ac9d4}, // avg 0.000754784 s
	"stremi/n32/bcast/hierarch/2MB":         {0x3fb70ec579916c84, 0x3fb70ec579916c7b, 0x3fb70ec579916c88}, // avg 0.0900691435 s
	"stremi/n32/bcast/hierarch/8KB":         {0x3f73af42439b3cd1, 0x3f73af42439b3ca2, 0x3f73af42439b3d20}, // avg 0.00480581173 s
	"stremi/n32/bcast/hierarch/8MB":         {0x3fc548f4586c3462, 0x3fc548f4586c3435, 0x3fc548f4586c34ba}, // avg 0.166288894 s
	"stremi/n32/bcast/hierknem/2KB":         {0x3f48b8b94a3ec343, 0x3f48b8b94a3ec328, 0x3f48b8b94a3ec358}, // avg 0.000754442667 s
	"stremi/n32/bcast/hierknem/2MB":         {0x3fa30912ce38dd3b, 0x3fa30912ce38dce0, 0x3fa30912ce38dd6c}, // avg 0.0371786 s
	"stremi/n32/bcast/hierknem/8KB":         {0x3f5b0c40983013f7, 0x3f5b0c40983013f4, 0x3f5b0c40983013fa}, // avg 0.0016508704 s
	"stremi/n32/bcast/hierknem/8MB":         {0x3fb8a1921e6b9e70, 0x3fb8a1921e6b9d10, 0x3fb8a1921e6ba020}, // avg 0.0962153744 s
	"stremi/n32/bcast/tuned/2KB":            {0x3f6ec7337db4af97, 0x3f6d080c1189878c, 0x3f701e674af53684}, // avg 0.00375709588 s
	"stremi/n32/bcast/tuned/2MB":            {0x3fbb2c97f4197131, 0x3fbb1fb974408400, 0x3fbb3a3a2fe60781}, // avg 0.106149194 s
	"stremi/n32/bcast/tuned/8KB":            {0x3f8bceb9028b99b8, 0x3f8a8f25da2085b8, 0x3f8cf134f587a550}, // avg 0.013577886 s
	"stremi/n32/bcast/tuned/8MB":            {0x3fc451b8bd73d355, 0x3fc44b6fe7aaef0c, 0x3fc458ecfd438c74}, // avg 0.158743947 s
}
