package testbed

// ClusterSpec describes one cluster of the generated testbed. The default
// specification below reproduces the paper's scale exactly: 8 sites,
// 32 clusters, 894 nodes, 8490 cores — with the vendor/age heterogeneity
// the paper blames for subtle hardware bugs (slide 12).
type ClusterSpec struct {
	Name      string
	Site      string
	Vendor    string
	ModelYear int

	NodeCount      int
	Sockets        int
	CoresPerSocket int
	CPUModel       string
	FreqMHz        int
	RAMGB          int

	DiskCount  int
	DiskGB     int
	DiskRPM    int // 0 = SSD
	DiskVendor string
	DiskModel  string
	DiskFW     string

	NICRateGbps int
	NICDriver   string

	GPUModel   string // "" = none
	Infiniband string // "" = none, else e.g. "QDR 40G"

	BIOSVersion  string
	HyperThread  bool
	TurboBoost   bool
	PowerProfile string
}

// DefaultSpec is the 32-cluster specification of the default testbed.
//
// Invariants checked by tests (and relied upon by internal/suites for its
// 751 test configurations):
//   - 8 distinct sites, 32 clusters
//   - node counts sum to 894, cores to 8490
//   - exactly 9 Dell clusters          (dellbios test family)
//   - exactly 6 InfiniBand clusters    (mpigraph test family)
//   - exactly 24 clusters with HDDs    (disk test family)
var DefaultSpec = []ClusterSpec{
	// ---- grenoble (4 clusters) ----
	{Name: "edel", Site: "grenoble", Vendor: "Bull", ModelYear: 2008, NodeCount: 48,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5520", FreqMHz: 2270, RAMGB: 24,
		DiskCount: 1, DiskGB: 160, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3160815AS", DiskFW: "3.AAD",
		NICRateGbps: 1, NICDriver: "igb", BIOSVersion: "1.12", PowerProfile: "balanced"},
	{Name: "genepi", Site: "grenoble", Vendor: "Bull", ModelYear: 2008, NodeCount: 30,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5420", FreqMHz: 2500, RAMGB: 8,
		DiskCount: 1, DiskGB: 160, DiskRPM: 7200, DiskVendor: "Hitachi", DiskModel: "HDS72161", DiskFW: "V5DOA7EA",
		NICRateGbps: 1, NICDriver: "e1000e", BIOSVersion: "2.04", PowerProfile: "balanced"},
	{Name: "adonis", Site: "grenoble", Vendor: "Bull", ModelYear: 2009, NodeCount: 10,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5520", FreqMHz: 2270, RAMGB: 24,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3250318AS", DiskFW: "CC38",
		NICRateGbps: 1, NICDriver: "igb", GPUModel: "NVIDIA Tesla S1070",
		BIOSVersion: "1.15", PowerProfile: "performance"},
	{Name: "dahu", Site: "grenoble", Vendor: "HP", ModelYear: 2016, NodeCount: 13,
		Sockets: 2, CoresPerSocket: 7, CPUModel: "Intel Xeon E5-2660", FreqMHz: 2200, RAMGB: 64,
		DiskCount: 2, DiskGB: 480, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2KB48", DiskFW: "XCV1DL61",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "P89v2.40", TurboBoost: true, PowerProfile: "performance"},

	// ---- lille (4 clusters) ----
	{Name: "chimint", Site: "lille", Vendor: "IBM", ModelYear: 2011, NodeCount: 20,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5620", FreqMHz: 2400, RAMGB: 16,
		DiskCount: 1, DiskGB: 300, DiskRPM: 10000, DiskVendor: "IBM", DiskModel: "MBF2300RC", DiskFW: "SB17",
		NICRateGbps: 1, NICDriver: "bnx2", BIOSVersion: "1.9", HyperThread: true, PowerProfile: "balanced"},
	{Name: "chirloute", Site: "lille", Vendor: "IBM", ModelYear: 2011, NodeCount: 8,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5620", FreqMHz: 2400, RAMGB: 16,
		DiskCount: 1, DiskGB: 300, DiskRPM: 10000, DiskVendor: "IBM", DiskModel: "MBF2300RC", DiskFW: "SB17",
		NICRateGbps: 1, NICDriver: "bnx2", BIOSVersion: "1.9", HyperThread: true, PowerProfile: "balanced"},
	{Name: "chinqchint", Site: "lille", Vendor: "HP", ModelYear: 2007, NodeCount: 42,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5440", FreqMHz: 2830, RAMGB: 8,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3250620NS", DiskFW: "3.AEG",
		NICRateGbps: 1, NICDriver: "tg3", BIOSVersion: "P56", PowerProfile: "balanced"},
	{Name: "chifflet", Site: "lille", Vendor: "Dell", ModelYear: 2016, NodeCount: 16,
		Sockets: 2, CoresPerSocket: 8, CPUModel: "Intel Xeon E5-2620 v4", FreqMHz: 2100, RAMGB: 128,
		DiskCount: 2, DiskGB: 400, DiskRPM: 0, DiskVendor: "Toshiba", DiskModel: "PX04SHB040", DiskFW: "A3AF",
		NICRateGbps: 10, NICDriver: "ixgbe", GPUModel: "", BIOSVersion: "2.3.4", TurboBoost: true,
		PowerProfile: "performance"},

	// ---- luxembourg (2 clusters) ----
	{Name: "granduc", Site: "luxembourg", Vendor: "HP", ModelYear: 2010, NodeCount: 22,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon L5335", FreqMHz: 2000, RAMGB: 16,
		DiskCount: 1, DiskGB: 160, DiskRPM: 7200, DiskVendor: "WDC", DiskModel: "WD1602ABKS", DiskFW: "3B04",
		NICRateGbps: 1, NICDriver: "e1000e", BIOSVersion: "P61", PowerProfile: "balanced"},
	{Name: "petitprince", Site: "luxembourg", Vendor: "Dell", ModelYear: 2013, NodeCount: 16,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630L", FreqMHz: 2000, RAMGB: 32,
		DiskCount: 1, DiskGB: 500, DiskRPM: 7200, DiskVendor: "WDC", DiskModel: "WD5003ABYX", DiskFW: "01.01S02",
		NICRateGbps: 1, NICDriver: "ixgbe", BIOSVersion: "2.2.2", TurboBoost: true, PowerProfile: "balanced"},

	// ---- lyon (4 clusters) ----
	{Name: "sagittaire", Site: "lyon", Vendor: "Sun", ModelYear: 2006, NodeCount: 50,
		Sockets: 2, CoresPerSocket: 2, CPUModel: "AMD Opteron 250", FreqMHz: 2400, RAMGB: 2,
		DiskCount: 1, DiskGB: 73, DiskRPM: 10000, DiskVendor: "Fujitsu", DiskModel: "MAT3073NC", DiskFW: "5207",
		NICRateGbps: 1, NICDriver: "tg3", BIOSVersion: "V1.33", PowerProfile: "balanced"},
	{Name: "hercule", Site: "lyon", Vendor: "Dell", ModelYear: 2012, NodeCount: 4,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2620", FreqMHz: 2000, RAMGB: 32,
		DiskCount: 2, DiskGB: 2000, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST2000NM0033", DiskFW: "GA04",
		NICRateGbps: 1, NICDriver: "igb", BIOSVersion: "1.6.0", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "orion", Site: "lyon", Vendor: "Dell", ModelYear: 2012, NodeCount: 16,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630", FreqMHz: 2300, RAMGB: 32,
		DiskCount: 1, DiskGB: 2000, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST2000NM0033", DiskFW: "GA04",
		NICRateGbps: 1, NICDriver: "igb", GPUModel: "NVIDIA Tesla M2075",
		BIOSVersion: "1.6.0", TurboBoost: true, PowerProfile: "performance"},
	{Name: "taurus", Site: "lyon", Vendor: "Dell", ModelYear: 2012, NodeCount: 30,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630", FreqMHz: 2300, RAMGB: 32,
		DiskCount: 1, DiskGB: 600, DiskRPM: 10000, DiskVendor: "Seagate", DiskModel: "ST600MM0006", DiskFW: "LS0A",
		NICRateGbps: 1, NICDriver: "igb", Infiniband: "FDR 56G",
		BIOSVersion: "1.6.0", TurboBoost: true, PowerProfile: "balanced"},

	// ---- nancy (7 clusters) ----
	{Name: "graphene", Site: "nancy", Vendor: "Carri", ModelYear: 2010, NodeCount: 64,
		Sockets: 1, CoresPerSocket: 4, CPUModel: "Intel Xeon X3440", FreqMHz: 2530, RAMGB: 16,
		DiskCount: 1, DiskGB: 320, DiskRPM: 7200, DiskVendor: "Hitachi", DiskModel: "HDS72103", DiskFW: "JP4OA3EA",
		NICRateGbps: 1, NICDriver: "r8169", Infiniband: "QDR 40G",
		BIOSVersion: "080016", PowerProfile: "balanced"},
	{Name: "graoully", Site: "nancy", Vendor: "Carri", ModelYear: 2010, NodeCount: 25,
		Sockets: 1, CoresPerSocket: 4, CPUModel: "Intel Xeon X3440", FreqMHz: 2530, RAMGB: 16,
		DiskCount: 1, DiskGB: 320, DiskRPM: 7200, DiskVendor: "Hitachi", DiskModel: "HDS72103", DiskFW: "JP4OA3EA",
		NICRateGbps: 1, NICDriver: "r8169", BIOSVersion: "080016", PowerProfile: "balanced"},
	{Name: "griffon", Site: "nancy", Vendor: "Carri", ModelYear: 2008, NodeCount: 92,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon L5420", FreqMHz: 2500, RAMGB: 16,
		DiskCount: 1, DiskGB: 320, DiskRPM: 7200, DiskVendor: "Hitachi", DiskModel: "HDP72503", DiskFW: "GM3OA52A",
		NICRateGbps: 1, NICDriver: "e1000e", Infiniband: "DDR 20G",
		BIOSVersion: "080015", PowerProfile: "balanced"},
	{Name: "graphite", Site: "nancy", Vendor: "HP", ModelYear: 2013, NodeCount: 4,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2650", FreqMHz: 2000, RAMGB: 256,
		DiskCount: 1, DiskGB: 300, DiskRPM: 15000, DiskVendor: "HP", DiskModel: "EH0300FBQDD", DiskFW: "HPD5",
		NICRateGbps: 1, NICDriver: "tg3", BIOSVersion: "P70", TurboBoost: true, PowerProfile: "performance"},
	{Name: "grimoire", Site: "nancy", Vendor: "Dell", ModelYear: 2015, NodeCount: 8,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630 v3", FreqMHz: 2400, RAMGB: 128,
		DiskCount: 2, DiskGB: 200, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2BX20", DiskFW: "G2010150",
		NICRateGbps: 10, NICDriver: "ixgbe", Infiniband: "FDR 56G",
		BIOSVersion: "1.5.4", TurboBoost: true, PowerProfile: "performance"},
	{Name: "grisou", Site: "nancy", Vendor: "Dell", ModelYear: 2015, NodeCount: 26,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630 v3", FreqMHz: 2400, RAMGB: 128,
		DiskCount: 2, DiskGB: 600, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2BX60", DiskFW: "G2010150",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "1.5.4", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "grillon", Site: "nancy", Vendor: "Dell", ModelYear: 2015, NodeCount: 24,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630 v3", FreqMHz: 2400, RAMGB: 64,
		DiskCount: 1, DiskGB: 600, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2BX60", DiskFW: "G2010140",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "1.5.4", TurboBoost: true, PowerProfile: "balanced"},

	// ---- nantes (2 clusters) ----
	{Name: "econome", Site: "nantes", Vendor: "Dell", ModelYear: 2013, NodeCount: 22,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2660", FreqMHz: 2200, RAMGB: 64,
		DiskCount: 1, DiskGB: 2000, DiskRPM: 7200, DiskVendor: "Toshiba", DiskModel: "MG03ACA200", DiskFW: "FL1A",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "2.2.2", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "ecotype", Site: "nantes", Vendor: "Dell", ModelYear: 2016, NodeCount: 48,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630L v4", FreqMHz: 1800, RAMGB: 128,
		DiskCount: 1, DiskGB: 400, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2BB40", DiskFW: "D2012370",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "2.3.4", TurboBoost: true, PowerProfile: "balanced"},

	// ---- rennes (5 clusters) ----
	{Name: "parapide", Site: "rennes", Vendor: "Sun", ModelYear: 2009, NodeCount: 24,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon X5570", FreqMHz: 2930, RAMGB: 24,
		DiskCount: 1, DiskGB: 500, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3500320NS", DiskFW: "SN06",
		NICRateGbps: 1, NICDriver: "igb", Infiniband: "QDR 40G",
		BIOSVersion: "V2.10", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "paradent", Site: "rennes", Vendor: "Carri", ModelYear: 2009, NodeCount: 24,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon L5420", FreqMHz: 2500, RAMGB: 32,
		DiskCount: 1, DiskGB: 320, DiskRPM: 7200, DiskVendor: "Hitachi", DiskModel: "HDP72503", DiskFW: "GM3OA52A",
		NICRateGbps: 1, NICDriver: "e1000e", BIOSVersion: "080015", PowerProfile: "balanced"},
	{Name: "parasilo", Site: "rennes", Vendor: "Dell", ModelYear: 2015, NodeCount: 20,
		Sockets: 2, CoresPerSocket: 6, CPUModel: "Intel Xeon E5-2630 v3", FreqMHz: 2400, RAMGB: 128,
		DiskCount: 5, DiskGB: 600, DiskRPM: 0, DiskVendor: "Intel", DiskModel: "SSDSC2BX60", DiskFW: "G2010150",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "1.5.4", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "paravance", Site: "rennes", Vendor: "Dell", ModelYear: 2014, NodeCount: 64,
		Sockets: 2, CoresPerSocket: 8, CPUModel: "Intel Xeon E5-2630 v3", FreqMHz: 2400, RAMGB: 128,
		DiskCount: 2, DiskGB: 600, DiskRPM: 0, DiskVendor: "Samsung", DiskModel: "MZ7KM600", DiskFW: "GXM1003Q",
		NICRateGbps: 10, NICDriver: "ixgbe", BIOSVersion: "1.5.4", TurboBoost: true, PowerProfile: "balanced"},
	{Name: "parapluie", Site: "rennes", Vendor: "HP", ModelYear: 2010, NodeCount: 24,
		Sockets: 2, CoresPerSocket: 12, CPUModel: "AMD Opteron 6164 HE", FreqMHz: 1700, RAMGB: 48,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3250318AS", DiskFW: "CC38",
		NICRateGbps: 1, NICDriver: "tg3", Infiniband: "QDR 40G",
		BIOSVersion: "O39", PowerProfile: "balanced"},

	// ---- sophia (4 clusters) ----
	{Name: "sol", Site: "sophia", Vendor: "Sun", ModelYear: 2007, NodeCount: 20,
		Sockets: 2, CoresPerSocket: 2, CPUModel: "AMD Opteron 2218", FreqMHz: 2600, RAMGB: 4,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3250620NS", DiskFW: "3.AEG",
		NICRateGbps: 1, NICDriver: "e1000", BIOSVersion: "S88", PowerProfile: "balanced"},
	{Name: "suno", Site: "sophia", Vendor: "Dell", ModelYear: 2010, NodeCount: 30,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon E5520", FreqMHz: 2270, RAMGB: 32,
		DiskCount: 1, DiskGB: 600, DiskRPM: 10000, DiskVendor: "Seagate", DiskModel: "ST3600057SS", DiskFW: "ES64",
		NICRateGbps: 1, NICDriver: "bnx2", BIOSVersion: "2.1.15", PowerProfile: "balanced"},
	{Name: "uvb", Site: "sophia", Vendor: "Dell", ModelYear: 2011, NodeCount: 20,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "Intel Xeon X5670", FreqMHz: 2930, RAMGB: 96,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "WDC", DiskModel: "WD2502ABYS", DiskFW: "02.03B03",
		NICRateGbps: 1, NICDriver: "bnx2", BIOSVersion: "6.1.0", HyperThread: true, PowerProfile: "balanced"},
	{Name: "helios", Site: "sophia", Vendor: "Sun", ModelYear: 2008, NodeCount: 30,
		Sockets: 2, CoresPerSocket: 4, CPUModel: "AMD Opteron 2356", FreqMHz: 2300, RAMGB: 8,
		DiskCount: 1, DiskGB: 250, DiskRPM: 7200, DiskVendor: "Seagate", DiskModel: "ST3250310NS", DiskFW: "SN04",
		NICRateGbps: 1, NICDriver: "e1000", BIOSVersion: "S92", PowerProfile: "balanced"},
}
