package verify_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"testing"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/routing"
	"chipletnet/internal/topology"
	"chipletnet/internal/verify"
)

// hashSink digests every streamed routing state in arrival order, so a
// golden pins the traversal order routing.Compile consumes, not just the
// verdict.
type hashSink struct{ h hash.Hash }

func (s *hashSink) State(node, dst, tag int, cands []router.Candidate, nsort int) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		s.h.Write(b[:])
	}
	put(uint64(node))
	put(uint64(dst))
	put(uint64(tag))
	put(uint64(nsort))
	put(uint64(len(cands)))
	for _, c := range cands {
		put(uint64(c.Port))
		put(uint64(c.VCMask))
		if c.Escape {
			put(1)
		} else {
			put(0)
		}
	}
}

// TestCertificateGoldens pins Certificate().Hash() and the SHA-256 of the
// full Report JSON for every topology kind x routing mode, under both the
// DSE pre-flight sampling and exhaustive analysis, plus the negative
// corpus and a witness-overflow case. Exhaustive rows also pin the
// streamed state sequence through a Sink. Any change to the traversal,
// the witness selection or their ordering shows up here.
func TestCertificateGoldens(t *testing.T) {
	preflight := verify.Options{MaxDests: 16, MaxSources: 8}
	duato := routing.Options{Mode: routing.DuatoEscape}
	su := routing.Options{Mode: routing.SafeUnsafe}
	equal := routing.Options{DisableNDMeshVCSeparation: true, AllowUnsafe: true}
	unsafeDuato := routing.Options{AllowUnsafe: true}

	type row struct {
		name    string
		fixture string
		ropt    routing.Options
		fault   bool   // fail 20% of cross links (seed 7) before routing
		defect  string // negative-corpus wrapper (see applyDefect)
		wit     int    // MaxWitnesses override (0 = default)
	}
	var rows []row
	for _, f := range []string{"mesh-3x3", "hypercube-4", "ndmesh-3x2", "ndmesh-3x2x2",
		"ndtorus-4x3", "ndtorus-8x2", "dragonfly-6", "tree-7"} {
		rows = append(rows,
			row{name: f + "/duato", fixture: f, ropt: duato},
			row{name: f + "/safe-unsafe", fixture: f, ropt: su})
		if f[:2] == "nd" {
			rows = append(rows, row{name: f + "/equal-channel", fixture: f, ropt: equal})
		}
	}
	rows = append(rows,
		row{name: "ring-5/duato", fixture: "ring-5", ropt: unsafeDuato},
		row{name: "ring-5/safe-unsafe", fixture: "ring-5", ropt: su},
		row{name: "hypercube-4-faulted/duato", fixture: "hypercube-4", ropt: duato, fault: true},
		row{name: "mesh-3x3/unreachable", fixture: "mesh-3x3", ropt: su, defect: "unreachable"},
		row{name: "mesh-3x3/pingpong", fixture: "mesh-3x3", ropt: duato, defect: "pingpong"},
		row{name: "mesh-3x3/unreachable-truncated", fixture: "mesh-3x3", ropt: su, defect: "unreachable", wit: 2},
		row{name: "hypercube-4/stray-escape/duato", fixture: "hypercube-4", ropt: duato, defect: "stray"},
		row{name: "hypercube-4/stray-escape/safe-unsafe", fixture: "hypercube-4", ropt: su, defect: "stray"},
	)

	seen := map[string]bool{}
	for _, tc := range rows {
		for _, exhaustive := range []bool{false, true} {
			name := tc.name + "/preflight"
			if exhaustive {
				name = tc.name + "/exhaustive"
			}
			seen[name] = true
			t.Run(name, func(t *testing.T) {
				sys := build(t, tc.fixture)
				if tc.fault {
					if _, err := sys.FailRandomCrossLinks(0.2, 7); err != nil {
						t.Fatal(err)
					}
				}
				install(t, sys, tc.ropt)
				applyDefect(t, sys, tc.defect)
				opt := preflight
				var sink *hashSink
				if exhaustive {
					opt = verify.Options{}
					if tc.defect == "" { // defect wrappers expose no RawCandidates
						sink = &hashSink{h: sha256.New()}
						opt.Sink = sink
					}
				}
				opt.MaxWitnesses = tc.wit
				rep := verify.Run(sys, opt)
				if tc.wit > 0 && rep.Truncated == 0 {
					t.Errorf("witness-overflow row truncated nothing:\n%s", rep)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(js)
				got := golden{Cert: rep.Certificate().Hash(), Report: hex.EncodeToString(sum[:])}
				if sink != nil {
					got.States = hex.EncodeToString(sink.h.Sum(nil))
				}
				want, ok := certificateGoldens[name]
				if !ok {
					t.Fatalf("no golden; got\n\t%q: {%q, %q, %q},", name, got.Cert, got.Report, got.States)
				}
				if got != want {
					t.Errorf("golden mismatch:\n got %+v\nwant %+v\nreport:\n%s", got, want, rep)
				}
			})
		}
	}
	for name := range certificateGoldens {
		if !seen[name] {
			t.Errorf("stale golden %q has no row", name)
		}
	}
}

// golden is one pinned analysis outcome: the certificate content address,
// the SHA-256 of the Report's JSON encoding, and the digest of the
// streamed state sequence ("" when no Sink ran).
type golden struct{ Cert, Report, States string }

// certificateGoldens change only when the analysis itself changes what it
// proves or reports; an optimization of the traversal must reproduce
// them exactly.
var certificateGoldens = map[string]golden{
	"mesh-3x3/duato/preflight":                        {"5e8a3ceb17a7aa4f11f2830500d46c411ba45c92d3e76764cd04f1266d802fab", "982ccd554b6ef3a7679da92dcca64f4a0b2f2de8e94d5378027897efe4551010", ""},
	"mesh-3x3/duato/exhaustive":                       {"cda4ecfa0bdcd62af2626023b2667ddd4a6087e10a4026aa49889b915420357b", "00c4bbd72d1bbf37249fa9cd8025f5d9dbd92a5b8d48811359e7df0de2eb773b", "c72dcd64a645083db04bbb28ce56079573acddbe005a5fdb264dbc8f751e88ee"},
	"mesh-3x3/safe-unsafe/preflight":                  {"0c69d8cd47cc20f4e1f57889c6bb6fa3feda5d550613a8e5cec79cd021b5a1fc", "76dbb8fdcd7218aa789d0b6a9b72a98e54adf23a6e2550707c53defb40e5804d", ""},
	"mesh-3x3/safe-unsafe/exhaustive":                 {"0f5a0d97ccc8e1348fb73186c9ddc216eebdcf8f6a778f3353e683fd3a7d7b1d", "a301d2d09f7bd398481c7f1cbf1e7c18b9d68be54fff475665ac50a8c1704d08", "cf0215ecaee1dbae8f2f7928c69c993d8e1cae8b5918c6255203782d323a2f09"},
	"hypercube-4/duato/preflight":                     {"f42121de63c77edc3e27d427331c9b2b58e0ca6d07ed3c16f93763ab7e5b9ab3", "1ecf1639131b4cbda91b5a0aaa9299d15ed7a81cf1b630e720a8e5ee4ddf0688", ""},
	"hypercube-4/duato/exhaustive":                    {"e3c910c6c372973a3b743b5611f4cc75eef060e6860aa0eafb59c78d929df1dd", "2cbdf75c9d0d0c0e4f6a58c624fe19eeda3c2780b5ffaa732de5c0a8e91d9339", "89b67db37475cece5d622b9ffff386e54c47891cee77956f8055561617605f14"},
	"hypercube-4/safe-unsafe/preflight":               {"0a56fb6654993d066084bf9c6cf77c9a0f99693a6d1823a0b7c5db6689820367", "de94cafab47595e176c9d09305840d1ab992cc0963225e54f7bbae1b4eb073c6", ""},
	"hypercube-4/safe-unsafe/exhaustive":              {"27c157702ed8cd87cc6800186d9c4b45ce5630473c01614987f10777065eccec", "69191324732d1032289c57d3ca9eb11dafe80e5f9f5e15b912024e71cc9af7ce", "618e9ffb04754ed904f80eabe23910701d96c1fc7c3dd399060a85ddaa774034"},
	"ndmesh-3x2/duato/preflight":                      {"feb99e5e1a56efcf252d6358c54420ea5b47ae6b71bea81cf1d0a9f83195110f", "0f6c0fd6d0bdcf9edeec9254b395293b6853c72e15dd86214e0a05cfbdf95e02", ""},
	"ndmesh-3x2/duato/exhaustive":                     {"f974c1da4b0a1492e9d2540d67d859e960766246d0b9244d0ae42d6976bee666", "6c0d7ad97be91f486ae4994d260d2a808212a3b69428b6bd23e93f85e53d1fc5", "a11034de291f558433b9a4ecc3314d36b83f9a39ccd21c5ff842ddf1dead47c9"},
	"ndmesh-3x2/safe-unsafe/preflight":                {"93722cddc7481ae029e5c4c44a1a7bd909e380c20cf2b2fcd40064b0ece89c50", "14a04664a3dc522bbfe3355351c1db55497c7dcc63ca6e269bb1522929fbe6dd", ""},
	"ndmesh-3x2/safe-unsafe/exhaustive":               {"47cb1e9473da91cddbf44a725c2dc2bc1128aad34d353071a85a501b1603d3d4", "f98fbf71e0e8c2798217b33b5a97079b37f53b60d9ba62d915db570ef20e9a6e", "52b24b08df932e42d4d9b3cf25c0a74dd71f15d4fb416bdb69a4af3924cd4fc5"},
	"ndmesh-3x2/equal-channel/preflight":              {"7412c1aa3b184f937cc99160433913ac8ce9309003172750cc8cdb4930540ec2", "d9e5b5faada90d54348f089dd2aefc0c35765dd8b1bb27a184f6d2573a7b6435", ""},
	"ndmesh-3x2/equal-channel/exhaustive":             {"846563ac497111737c9ba0b1336d32ac0a258196af8d32b01f21cec6d2df53a5", "99b876ac805ec316e88b0b7a8ede7a04d26e6dd866fa1cdbccd9d3e15fa2fc05", "80de501006a62e637dd942ba1fc7b5c967f2066721b0431d2fa62c07f3d19f3c"},
	"ndmesh-3x2x2/duato/preflight":                    {"632d3b7070f0a490e4a08ee24323d0787a0c735fe8cb37777114fc2f8be9ad2b", "fb8d406fcdce8aecb180bf4663d2cfd442d7c8f291a4262df48e0ca7cbf1a3a6", ""},
	"ndmesh-3x2x2/duato/exhaustive":                   {"ee140b0c9e176811b20a7dc4c020598e4f887a93a95d0289826528a66c09a2cc", "80156f2ab9590d2c8c3a59a3e06d86f13b6ab42c0b0e72ccfa76de49c7d24dd2", "0262194c456ad24ebf11f4eb1508829e943164a3f4b30d34036c90ee1b7dc3e5"},
	"ndmesh-3x2x2/safe-unsafe/preflight":              {"dbb651ee0fdc103969601b4bb6adb2ee6972ad1c7959de476b7992877487b3c5", "a1b8517f718bfa9d4cd93be147625b51be073153d99a9bfd9b3fc3ea17d9321e", ""},
	"ndmesh-3x2x2/safe-unsafe/exhaustive":             {"beec7d328146b6459c52c221e43473aae6442d6e5d24afd9bbc5d60042148e9a", "0a24e98af6e9e19647c03601bfe150fdc8c6f17a20df1f48c8ecd6b560413f58", "f8f2d2ef0d2b212cdd14a94d625716844f68b62d6c055dfbae5a7946a0d1f9c2"},
	"ndmesh-3x2x2/equal-channel/preflight":            {"2a3bff700366da20cd54476f8334ab3f27fd1a8fae78f8ff4f7d5414b2537ee4", "158d837baf0e103128d76980bfc5e9e5eb636298e0c8f09850a9135653202e0a", ""},
	"ndmesh-3x2x2/equal-channel/exhaustive":           {"fe806d58da8c7ef5081abe0b0b8503560bcb09541569f44a725dbddf19fcf968", "ff4bc0ce656e3a18aae4ffaa1d008f003ce39dbdddf504ca2f5e508211a31ecf", "db479efc2b07a016d32265f3cbe698395ef7954b74338d76688883d8fe1e2f9d"},
	"ndtorus-4x3/duato/preflight":                     {"ea6cbc05a1cff8c03c40103ed7d9bf0033d176ad862e6b29f69dcb12fc422090", "4d78a191ce617f0df2d3a28b66d1365f190dab11770788e82e63111b0d01e770", ""},
	"ndtorus-4x3/duato/exhaustive":                    {"b2ae116c32c995ada4fb5aa2c3420ff82464755368fd41ae66adf0a0ba1d7b69", "9d13c9907eaea726922eaed734cd1b5b32d92a5fb656c2db905e9e23a6707564", "d19a3db47d3ad9ee8aaf611a14fe7a4d986e14fa08ea3e027b14831c900beee5"},
	"ndtorus-4x3/safe-unsafe/preflight":               {"9563c049aeb92f82d8e5f0bf23aaddf3982cfd0770337185fa7f18b8a2d9fe75", "16cdd67231635cbb16a0e219b1b055fb7c1ef5f322f4332f34e9e00191d1ac98", ""},
	"ndtorus-4x3/safe-unsafe/exhaustive":              {"4c52d8b8a7a5295c486f7b329b3b22205cb5e2bae474ae4b1780e69f2f3dc85d", "6da26e8b9d8e2bc2969370d3fd65b7cbef75bd86205331ec4bb4fb29012182c9", "82f7416e4f8ffda9cc044a9fbd3a42717ae6829967dc05974dc65f48e3ce936d"},
	"ndtorus-4x3/equal-channel/preflight":             {"2418f67dd7034c33a6ed808195ab3653263f58064cdf2a2be5131a5a6775b644", "f897c1da745e9d631b800cc516f1fefaadf94d9a2aeaec14df715903fa80240f", ""},
	"ndtorus-4x3/equal-channel/exhaustive":            {"7fe68dc7a3ca5840fde3b2e80c1feec763d698acfc2d9d6a75ae141e89e78a55", "2c6bd4b78aeb0d050a46e7afe782f6f4f95e12dd87df6514c407e87017bc8e74", "a51fa7489c582782edff88c83ee97afdc4efbac3af0f0e11b2fff26c461567dd"},
	"ndtorus-8x2/duato/preflight":                     {"d01411fe03a58842a883a4d75d58199e72e0f524471897564915a58e4d4d1550", "a0825d283c0bfb12153ef57f9875e51a03aa2ef69d390c5cfcfe37cdb3d98320", ""},
	"ndtorus-8x2/duato/exhaustive":                    {"c1dab08aedaf8bef41546d96306668ce9a539688602f03715cc5ed379c767df8", "bee8dcffded65543173313f4454d0f57c17a0a68c9799cca1b74a5824ae16c8d", "22e915e5045090f19293fe06d168919aa6b9e47020571a94d3649b76b97a4227"},
	"ndtorus-8x2/safe-unsafe/preflight":               {"cdb14912c06b8c3c9a05eff1d400df93f9b04ccf284dbd02fc1baa76d7a8e65d", "1459869d5588c44aa1a1b5698fa4832c4f1e81c2efa927edbb3c018e728f692d", ""},
	"ndtorus-8x2/safe-unsafe/exhaustive":              {"4c60f1354add20b32456c91740dbe18018d4b7f5327ece0da6910d332318f853", "0478864cadf96d5c3321d6c17afc1dfb6522eae57dbf27ae37c43b8b1f51bc3f", "ce32b2817ae68b231eddd25c021cda68847b770591fc111b8a9f3288db232cab"},
	"ndtorus-8x2/equal-channel/preflight":             {"1ba73e92ffd51cdfba187fd7855834ea13d936b7e7734f122c1e91cc55dd937b", "3bef9e89255c873c42fa6462538093dc5bc838e41ff7c63c61986da9ca17e2a4", ""},
	"ndtorus-8x2/equal-channel/exhaustive":            {"3b7414a7449e3cb070e8b7eec705f61d992cba73d96543bcd7077728e1b1c740", "ed0477345c3717e455a42f21ae0ea8d194b61f5f4dc1c6ae82fb4a6e1817dc36", "781f3b473773b26e381b6e665ff7e58cd68d2b05fc8040ccf7ec69ae5bc49ecf"},
	"dragonfly-6/duato/preflight":                     {"29a77d07abee34883950dc46c95194a194c185685925f590106ae08b981e4442", "e2d7d6aac081277f3a9fd222a3d6d9a2d8b70c937969dfb811aa07ed79d33fdb", ""},
	"dragonfly-6/duato/exhaustive":                    {"f12c6efbdbe1e2094e64c2c43c10f558cfe4b9105be6dc171fefe160e29b2386", "d6732439e153f8e341220133ec9f21d66b8b0f31a907a60f2e0804f86e3f408b", "bdb1a184b2885a4c5f28d7baa552e033b7d0ed536daf3a82f420dd624d3a9aa3"},
	"dragonfly-6/safe-unsafe/preflight":               {"c7a407f730bdda9be8c7a4f7649bac4f53095c0af6138119e2a70d195839adea", "0250c141d1b4302b4034fc9598c309099c39390d9654dbc0260bf3ddba81cecd", ""},
	"dragonfly-6/safe-unsafe/exhaustive":              {"55fa3393ee11889f92955b6e2e4c0490321e8d6a14471ead41bd7d1950dd8d7a", "b979dab9b603d11d12401ebc07bf6fc2e781652f7632b058d57bacfa0ddc8c9a", "d1bcfaac8cfc9af8a8017573443b87549677a2518669f4890d10ea87291df500"},
	"tree-7/duato/preflight":                          {"120c02ee6c3c737d9d2dd8c6a301de7cc6ed8c35c5fed2639257c91636fa6657", "cb58568d5f744ddace7d6628dd90f4ca28b0650dce076d9fb4543c64971a710b", ""},
	"tree-7/duato/exhaustive":                         {"cbc943b371d5e0e2a89885b57b9550529d846199c74999cff7ebdc12c9e461f7", "ea0bd227b3ae2defd12ed266a3a2a44e19649624a472d73c94b685e6301f94d9", "bf85d59d598da60b60214eff0a6c3a7580a7fadeca10d97883de50c008c0197f"},
	"tree-7/safe-unsafe/preflight":                    {"de270ed21a30bf12d2440c42922f75054f11cde31d6e6ce25549b6efe9a828f2", "024f0570b6e9d56d402e20d7611c7af99f8e9fe084a80bcadd2cbfcc3a5e5020", ""},
	"tree-7/safe-unsafe/exhaustive":                   {"223a1a44362dd5dbc9bb275da788db2eb3c4bbef990afabd381332287fa010c0", "06ddcec9718b0e265df8159883329603432f3e5a95c518fd68a833b7d8eedf79", "bfd62476558590331bffa0a40dffc87b021c420ed1943f917c83a153a8917192"},
	"ring-5/duato/preflight":                          {"554be34eb2c098328e705168797a248b8f6e980ec73d68c6a009bd8f90bb94af", "cf9c0bf086dfbc1e0e9163dcf95a4198f1cace7fb4fb5f66729ce9ac6c98b213", ""},
	"ring-5/duato/exhaustive":                         {"3ce3e78800c7252c3c476048338fc6c4a66e30710f59ab694dc4903cf820ac41", "f4847ddd74ce06f8a57e4c6b7c0e46de838458505a8e516c761f804ebb0ca3c6", "605d1768bbaea7d6a244ee5357b45df956207b89a94456b74cf8e9185ee767c1"},
	"ring-5/safe-unsafe/preflight":                    {"16ce563c57a13f7d48f7424bc3c2a1c5563f0bec71daea793e70b9a384b1b65f", "93e58e7cf81cb6e5ba9dc5ebbe581910c67e62715b31b0c34b3432d753460911", ""},
	"ring-5/safe-unsafe/exhaustive":                   {"d9e8e3b50218c463d7b1b6228339ee4d33ad8b4d6afbf8d22d76f6c6492a25cc", "1f847547fd43bfa4c63972de769ac1d7d5e68d308d905aa72b75ba4265fe7f99", "87d3cf08053bf44e2c78cc2b35bed1c65c074482a042762edb86700561901c4f"},
	"hypercube-4-faulted/duato/preflight":             {"ba27f675db2f715f43627c7bd4a57261df19cdc62700855e7de55105a5ebd9dd", "37d3d862a1654a5fbe43b900ff41af6bb20ba788d59ec064c93d6763197f7c8a", ""},
	"hypercube-4-faulted/duato/exhaustive":            {"debfaa162e261072d49fca451d9bb56984fdac7552b1173f7ae7b3f99639956f", "8676d6b2e9efabc24bb48a83735821b70390445d746bebe8ccf313f94d271919", "5ac3ea4e22452447956eb31b069cd7983c7ff267e553044a362d7201d2e77966"},
	"mesh-3x3/unreachable/preflight":                  {"7dd24ad33e2b02868e6b794a0524907fa9343cc487f849ce6e4d0705c9276d61", "da548f66a667f856be0ddca429b3e48a1f8574c2cf8a1e9829330240866497d0", ""},
	"mesh-3x3/unreachable/exhaustive":                 {"640835aa6ff381597b2912008e2ce2ce405bf4b5e632c39e7e913b1c39b318e9", "6aeb77fa73470d235fbfd9b57fbad52f81b5b35979a8d5da44bd9834f3072fe0", ""},
	"mesh-3x3/pingpong/preflight":                     {"a4c05b1d31a9c631f83cfaeb406c4a03143027a6829ea1f3c0a3151159ec468b", "837c1904cc80979e09e914bdbef0553af34aa5367ef7155f15dcfdfecc4be933", ""},
	"mesh-3x3/pingpong/exhaustive":                    {"f6eee827d98e41e626b9f4dd01403ec555a9972a0db5a985ed3ecb75924e7ca0", "b42cb85e0007d88007494f131126c655222352454c3eddb46457d084f5731c6f", ""},
	"mesh-3x3/unreachable-truncated/preflight":        {"24d79d9b7692fb8d289aaeeca6634737d6d523723dd4ec96b39df8b128eefa83", "602ba21bb3cc8288f402cad64db2fc37b608342edfb0f5fafab9dec9d2882422", ""},
	"mesh-3x3/unreachable-truncated/exhaustive":       {"acd146e1f0dfd3c106abc92d023a4390a0949caa523fb4efe7a3f1753be8020c", "84dc6217a0ba0adef37125bc0811ea3c6388be720fe5ddfec10ab0b02cc64116", ""},
	"hypercube-4/stray-escape/duato/preflight":        {"854fc848194140aa668bf349766aea6f0bf662676132b16d34e9150bcc774388", "cc8460545cb960c502f041f9ab170b0c50afa26adbda8766ecf14400cd14a924", ""},
	"hypercube-4/stray-escape/duato/exhaustive":       {"dd0895292c5ed5640b222529b31b3423dae80f03ba524839ee3b1be83f1eaefc", "866345f1b5d5e8a2d554746226ca269908abee56d47f77955bbf280ca4741683", ""},
	"hypercube-4/stray-escape/safe-unsafe/preflight":  {"c663507af0b8003e19bd0c7f06f02079ea3bfbcb4d0b028c07a86d9f6d590c8c", "08e8ea4ea7293467b52b4b600234742b48964e3a852986eae7946d22b6697529", ""},
	"hypercube-4/stray-escape/safe-unsafe/exhaustive": {"a9f1787e253c17c707bf0c02441ddc791ac070828ce4752d726629a1086de496", "95e0de9c5cab09be327a1776a096c4fe94f501d29d50964c9835bfb80b120fb7", ""},
}

// applyDefect installs one of the negative-corpus routing wrappers.
func applyDefect(t *testing.T, sys *topology.System, defect string) {
	t.Helper()
	switch defect {
	case "":
	case "unreachable":
		victim := sys.Cores[0]
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &unreachableRouting{EscapeAnalyzer: inner, sys: sys, victim: victim}
		})
	case "pingpong":
		a := sys.Cores[0]
		b := neighbor(sys, a, -1)
		if b < a {
			a, b = b, a
		}
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &pingPongRouting{EscapeAnalyzer: inner, sys: sys, a: a, b: b}
		})
	case "stray":
		wrap(t, sys, func(inner verify.EscapeAnalyzer) router.Routing {
			return &strayEscapeRouting{EscapeAnalyzer: inner, a: sys.Cores[0], b: sys.Cores[1], vcs: sys.LP.VCs}
		})
	default:
		t.Fatalf("unknown defect %q", defect)
	}
}

// strayEscapeRouting names escape channels that are no channel of the
// fabric: at node a the escape VC is shifted past the configured range,
// and at node b the escape step jumps straight to the destination, which
// is no neighbor. The certifier must still account for such channels.
type strayEscapeRouting struct {
	verify.EscapeAnalyzer
	a, b, vcs int
}

func (s *strayEscapeRouting) EscapeStep(v int, p *packet.Packet) (int, int, bool) {
	next, vc, ok := s.EscapeAnalyzer.EscapeStep(v, p)
	switch {
	case !ok:
	case v == s.a:
		vc += s.vcs
	case v == s.b:
		next = p.Dst
	}
	return next, vc, ok
}
