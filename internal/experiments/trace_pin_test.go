package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/campaign"
)

// goldenTraceBytes pins the SHA-256 of every liberate-trace/v1 document
// the traced half of the golden sweep writes (6 profiles × {amazon,
// youtube} × hours {0, 12}, 8 KiB bodies, seed 1), keyed by trace file
// name. The data plane may get faster, but no element may see a frame at
// a different instant or in a different order: any such change moves an
// event's VNS, its order, or a counter, and so the bytes.
var goldenTraceBytes = map[string]string{
	"att_amazon_h=0_b=8192_s=1.trace.json":       "3641558348ee1adb9b8e6ee49b3ed462a47d375923e3e36d024fc3fe9344abab",
	"att_amazon_h=12_b=8192_s=1.trace.json":      "14e73c81b7010474fd07882de33c6a4abc2ef7779a8dbb0c5eab292be6ef9bbb",
	"att_youtube_h=0_b=8192_s=1.trace.json":      "da2951a346e9c1d611be15bc6ec3cab27416ce8984dda7677533cad81b82dd0f",
	"att_youtube_h=12_b=8192_s=1.trace.json":     "52a2d2d4aa63c4c8a85d9ee1e5baa0940540cd271613144b426d6a22718b020e",
	"gfc_amazon_h=0_b=8192_s=1.trace.json":       "f198e27d4fbadeedf1d2f35e3efe87b966f911e0f85a7342dc9d7f2ef3c5231f",
	"gfc_amazon_h=12_b=8192_s=1.trace.json":      "b2ad34ad560b0cec7a988b75417c40535932a8d6b0f497f332ac9b55058dc52f",
	"gfc_youtube_h=0_b=8192_s=1.trace.json":      "68a2b7555d3ad306d13bdf53ec5083f4fe9e4f432b665945d2f6ad99d53880e8",
	"gfc_youtube_h=12_b=8192_s=1.trace.json":     "7db0b45f262bf26910ac81e7657f09a67b3f64deb168ebc772bea976772edfc8",
	"iran_amazon_h=0_b=8192_s=1.trace.json":      "8ff6b2863daa65cb754a0f147f85d52993d4c626ce909ad9cf34d9e8c3c291c3",
	"iran_amazon_h=12_b=8192_s=1.trace.json":     "2fba61919cc08fee04dcd651b200db2052b28876180bd6bb8ad665567bb013fd",
	"iran_youtube_h=0_b=8192_s=1.trace.json":     "ec2433bf3df39852827428b28e4963c0b6155525cb29ebb71f4de91d68fdd00e",
	"iran_youtube_h=12_b=8192_s=1.trace.json":    "f545496eccf2b7e7d5959b3f67cb5108e1ebbb5382c7d9adda7a9945f3c3c34b",
	"sprint_amazon_h=0_b=8192_s=1.trace.json":    "7b4ae4cf7b8c40b92a252f0391e8d37b8b054d977ae112e83aa15a53d6cff1a6",
	"sprint_amazon_h=12_b=8192_s=1.trace.json":   "15621b068be45511312c5fe3c03a493eb60fec97b1736e4a217aa61281041886",
	"sprint_youtube_h=0_b=8192_s=1.trace.json":   "874db36cb130286738e0b97bc1ad2c8e555de9d1c53764c4ef2f9a6837738393",
	"sprint_youtube_h=12_b=8192_s=1.trace.json":  "f18e4ba458b25ea6dd9977c4c9ce5f8256ff72459d6c01fdccb754fa1e56aaee",
	"testbed_amazon_h=0_b=8192_s=1.trace.json":   "de293835a2a1b28271745d48509498a898cb38739166cd5966b509e535b97531",
	"testbed_amazon_h=12_b=8192_s=1.trace.json":  "0423c191fb6e3906d34475c8f9d9e4b0ce292938d73f61fb15ce59fa3ebf74ce",
	"testbed_youtube_h=0_b=8192_s=1.trace.json":  "87dcda4093a477e35c2f60373cae8356d188dcb4a6ea118aadf0ad2bbff8b4a3",
	"testbed_youtube_h=12_b=8192_s=1.trace.json": "ceaf53673b405b879b7095b706fd4751c9bfe0941125e8ca2224f3fbd9a5d23d",
	"tmobile_amazon_h=0_b=8192_s=1.trace.json":   "d1a72604acd47ec6c800cbef37b92a8c8ea5abe85bb6f6d65b34723bfcdbfb67",
	"tmobile_amazon_h=12_b=8192_s=1.trace.json":  "f9053cdf18e97b6ffad7f4b55f299830b2c889a952f05c450b89bc9cf6ac6e51",
	"tmobile_youtube_h=0_b=8192_s=1.trace.json":  "ffc38530f6d0e6cd77c09434316c5b0d6296bfd2fbbd430e6b087cc272984406",
	"tmobile_youtube_h=12_b=8192_s=1.trace.json": "b87455c580ade09610c64dd1613d59179c7ed822064c73a5c0c7756b7567a756",
}

// goldenArmedTraceBytes pins the same 24 traced cells with the ambiguity
// fingerprint armed: the probe fork's merged events and the pruned
// evaluation suite are part of the bytes.
var goldenArmedTraceBytes = map[string]string{
	"att_amazon_h=0_b=8192_s=1.trace.json":       "bb1c7790027f1762d13f37e9f3bad835ab6fac210b49d8a2ad2a8cfe6da872ea",
	"att_amazon_h=12_b=8192_s=1.trace.json":      "ed2b1182adae14aa3a7af5261e1f1b122eaf8ddfab165cc35a890671185ae5a6",
	"att_youtube_h=0_b=8192_s=1.trace.json":      "000a86d5bb82c6a6f5abea800768edce1bb2026bc048972bf344da1b56873ad3",
	"att_youtube_h=12_b=8192_s=1.trace.json":     "9d540b22ffa6226845c78000083fe68cb0612aaf76625ad06bb4c4e76c81f682",
	"gfc_amazon_h=0_b=8192_s=1.trace.json":       "028554a4f5b8554c76873ae5e2e32cde1213b68c8f3b7c3a62bdedc6170b01d7",
	"gfc_amazon_h=12_b=8192_s=1.trace.json":      "0e4a21fc96219e07fc91ace242fa6881904bcdbcf754e01e0e60818a80b9b5d1",
	"gfc_youtube_h=0_b=8192_s=1.trace.json":      "92e492a4cde57671412925a9bc9e07e386ebfc8dc920b3f493555b36929a860f",
	"gfc_youtube_h=12_b=8192_s=1.trace.json":     "dbc11f1877986b6292f453b638ee08f8e0633ddcbff05595fa87cc0795be45d5",
	"iran_amazon_h=0_b=8192_s=1.trace.json":      "c2cfd8789602cd9513e2d249b4b49d64e54d7aa70b20fffc0dca75b44505af3c",
	"iran_amazon_h=12_b=8192_s=1.trace.json":     "67a634991fd752bcb1cccfa258f99d00cb3102a1f38745688602f82bbb6a98df",
	"iran_youtube_h=0_b=8192_s=1.trace.json":     "b5347178b1d8f6e91aafc51681890cefece2b6645300e72643ad562279dc748c",
	"iran_youtube_h=12_b=8192_s=1.trace.json":    "80ba515609ec0cdef604e344013800936db682e99a98ab7cbbcf069c4970e8f4",
	"sprint_amazon_h=0_b=8192_s=1.trace.json":    "2e67eb58cd3f6941cb4b160a2db65bd7aed1aa2fc83dea5f91b1f4560c33a5b8",
	"sprint_amazon_h=12_b=8192_s=1.trace.json":   "b6d209a167f754ef71e9ca459df8cdde3371c6d1b812a770ff2453d9ba13f900",
	"sprint_youtube_h=0_b=8192_s=1.trace.json":   "95bf3d037a1a2a9964b660a36550baf35377783a9cac62c6beaf9a43475f8f8c",
	"sprint_youtube_h=12_b=8192_s=1.trace.json":  "08b55efefa4a45a655cf521bedfbd31158e604a30a155d55f6ec9800ad38867f",
	"testbed_amazon_h=0_b=8192_s=1.trace.json":   "4f46e5336ca83389344ea02484afd8e9e09150f41ceca591094fb5b37ef10896",
	"testbed_amazon_h=12_b=8192_s=1.trace.json":  "4cdb29408b6130133780abba9d88bda54468f02601d8217bdd9d0304c7e81f61",
	"testbed_youtube_h=0_b=8192_s=1.trace.json":  "c803132447c5d36089727ad475a77f2d324b7a70f8cb25f6401de4e71bdf001c",
	"testbed_youtube_h=12_b=8192_s=1.trace.json": "3dad64202d0c70ca7d03d3dada0f8981c2cf254e2d203519ccc04d2f02b5f525",
	"tmobile_amazon_h=0_b=8192_s=1.trace.json":   "4d3371a81d7b6ccd8d6b22990cb0478f6a6e2322bb19da4ad020ccaebca9d879",
	"tmobile_amazon_h=12_b=8192_s=1.trace.json":  "7f85e06db6db06be51fc5f10d1a2d387f4519f4b0c0fd53f5f2639d7feb0b93a",
	"tmobile_youtube_h=0_b=8192_s=1.trace.json":  "1dcdc0c389c112d12b6dded5dfe104bf88506eba0105f35e0ec0e08d409e505a",
	"tmobile_youtube_h=12_b=8192_s=1.trace.json": "eb681aa3be15319ab604bf9f9fae05644dee0839eae294bec997a1ca4aef5e81",
}

func TestTraceBytesPinned(t *testing.T) {
	checkTraceBytes(t, false, goldenTraceBytes)
}

func TestTraceBytesArmedPinned(t *testing.T) {
	checkTraceBytes(t, true, goldenArmedTraceBytes)
}

func checkTraceBytes(t *testing.T, fingerprint bool, golden map[string]string) {
	if testing.Short() {
		t.Skip("24 traced engagements in -short mode")
	}
	dir := t.TempDir()
	spec := campaign.Spec{
		Name:        "trace-pin",
		Traces:      []string{"amazon", "youtube"},
		Hours:       []int{0, 12},
		Bodies:      []int{8 << 10},
		Seeds:       []int64{1},
		Fingerprint: fingerprint,
	}
	sum, err := (&campaign.Runner{Spec: spec, Workers: 2, TraceDir: dir}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("%d engagements failed", sum.Failed)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) != 24 {
		t.Fatalf("got %d trace files, want 24", len(files))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if got, want := sha256Hex(data), golden[name]; got != want {
			t.Errorf("%s: trace bytes diverged:\n got %s\nwant %s", name, got, want)
		}
	}
}
