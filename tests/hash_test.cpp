// SHA-256 / HMAC / HKDF / ChaCha20 / DRBG tests against published vectors
// and an independent oracle.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "crypto/chacha20.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/secure_bytes.h"

namespace sgk {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 'a' characters: exactly one block before padding.
  Bytes msg(64, 'a');
  EXPECT_EQ(to_hex(Sha256::digest(msg)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg = str_bytes("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.update(&msg[i], 1);
  EXPECT_EQ(h.finish(), Sha256::digest(msg));
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  // gka-lint: allow(GKA002) -- public RFC 4231 test vector, not a real key
  EXPECT_EQ(to_hex(hmac_sha256(key, str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  // gka-lint: allow(GKA002) -- public RFC 4231 test vector, not a real key
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, KeyLongerThanBlock) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, str_bytes("Test Using Larger Than Block-Size Key - "
                               "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 4: 25-byte key 0x01..0x19, 50 bytes of 0xcd.
TEST(Hmac, Rfc4231Case4) {
  Bytes k(25);
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(to_hex(hmac_sha256(k, Bytes(50, 0xcd))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 5: output truncated to 128 bits.
TEST(Hmac, Rfc4231Case5Truncated) {
  const Bytes full = hmac_sha256(Bytes(20, 0x0c), str_bytes("Test With Truncation"));
  EXPECT_EQ(to_hex(Bytes(full.begin(), full.begin() + 16)),
            "a3b6167473100ee06e0c796c2955552b");
}

// RFC 4231 test case 7: key and data both longer than the block size.
TEST(Hmac, Rfc4231Case7) {
  EXPECT_EQ(to_hex(hmac_sha256(
                Bytes(131, 0xaa),
                str_bytes("This is a test using a larger than block-size key "
                          "and a larger than block-size data. The key needs "
                          "to be hashed before being used by the HMAC "
                          "algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf_sha256(ikm, salt, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 2: 80-byte ikm, salt and info; 82-byte output.
TEST(Hkdf, Rfc5869Case2) {
  Bytes ikm(80), salt(80), info(80);
  for (std::size_t i = 0; i < 80; ++i) {
    ikm[i] = static_cast<std::uint8_t>(i);
    salt[i] = static_cast<std::uint8_t>(0x60 + i);
    info[i] = static_cast<std::uint8_t>(0xb0 + i);
  }
  Bytes okm = hkdf_sha256(ikm, salt, info, 82);
  EXPECT_EQ(to_hex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// RFC 5869 test case 3: empty salt and info.
TEST(Hkdf, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf_sha256(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedOutput) {
  EXPECT_THROW(hkdf_sha256({1, 2, 3}, {}, {}, 255 * 32 + 1), std::invalid_argument);
}

// Tables from an independent oracle: Python's hashlib and hmac over two
// fixed byte patterns, m[i] = (131 i + 7) mod 256 and k[i] = (29 i + 3) mod
// 256 (see pattern() below). Each table was generated once by the one-liner
// above it.

Bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>((i * mul + add) % 256);
  return out;
}

Bytes message_prefix(std::size_t n) { return pattern(n, 131, 7); }
Bytes k_prefix(std::size_t n) { return pattern(n, 29, 3); }

std::string hex_prefix(const Bytes& digest) { return to_hex(digest).substr(0, 16); }

// The first 8 bytes of SHA-256(m[:n]) for n = 0..1024:
// python3 -c "import hashlib;m=bytes((i*131+7)%256 for i in range(1024));d=['\"%s\"'%hashlib.sha256(m[:n]).hexdigest()[:16] for n in range(1025)];print('\n'.join('    '+', '.join(d[i:i+4])+',' for i in range(0,1025,4)))"
constexpr const char* kSha256Prefix[] = {
    "e3b0c44298fc1c14", "ca358758f6d27e6c", "4a80a67af76ac958", "17aef23a39d753e7",
    "2aad11f94736f39d", "f74b1421379962a4", "262957a1ba4d188c", "d68796b7712ef368",
    "dcbc821bb9a36f99", "24a1108979c137ef", "ba3f51c8b1198f14", "2b7795f34bf1bcfd",
    "f03c8fea15a29f08", "16675837bad66e5d", "221043803819aeb6", "c0121582635a552f",
    "bf1bb93d74f56e14", "6cf6584e0380783b", "812f635d36626ec8", "d6166ef39d724209",
    "a83fae9a0c8247db", "54be4b03654a24a9", "0593518b5a52d7e0", "0a0fe347b677937a",
    "cd881948c51a6d94", "76c385562d302bc0", "10701c8195e71e13", "e23c4022ad0e2e97",
    "410652a8aa54d81d", "842e8b2ec7692ad3", "caae9a259763141f", "b40a28e1f3c2313f",
    "bc9aa1b102854f1e", "ba2525a86a58dca8", "b7718965c30b9a89", "f8e4cbc4f4ddaf53",
    "f13407d53a6676b9", "09475090c0980608", "31d5d52d3e26ecc8", "6e37397e43bc3abd",
    "2c5acec66ef219b6", "f2835d6b1ef8f310", "710ac95780e9560b", "98f0a3da85962fe0",
    "cb4fc478d9b0a365", "233115cff023a05c", "3ffcbbd46e00096b", "b992da42a805995c",
    "a76bcd9e614588d9", "00b9883f6ada7ba1", "ac073bb0beaa6b28", "dbd5fdcad0fcd294",
    "af0041f8a62ed1c3", "9b4563a486a65e76", "df0dfd870292b2cb", "16ed9c4697ca11d5",
    "939ada93b2fe1e9c", "ab84281f3b181e6c", "46084278e6074706", "dbdecd0cd48d8c3d",
    "c8706e0b5979a41d", "f8a1d57f033ce7e6", "6e5dc5ee1806926b", "6073f83b09ae8201",
    "b337ba9b0c69c391", "9d6a3fb113b586b4", "d513c6a4c03ac076", "13001f3258b62efa",
    "1653e30a34fa1f2e", "8fd85efca33abf0d", "fb4dfe5aa11a5008", "b08e101e14abd95b",
    "f60e389e54f243fc", "ab10ab1b874f1307", "6bf852344056dd97", "ad143df0ba4a75f4",
    "d315356b49ec9276", "5242db27385fbbcd", "d6da5bfa422e5018", "2f391ed6b4588fdd",
    "6e0f69d1b09fa647", "8385326634cd6f2a", "64e480b23f0457cc", "b822feeb116a5bfd",
    "1ae56af10af1fdc3", "352734af26b50ece", "bbeffc3a45b381e4", "f2ef14fd73b48e7f",
    "a6d19b9afd91c15a", "57218865054203a3", "1f5d4b9d3add403f", "e8899b7a1b92bdda",
    "db2735d8eec96eb1", "d23235f2dddd1b2f", "66508e4b92f8f3f5", "c8736de66d8bf283",
    "6e6968bd9fcbe5dc", "1ecd026221adf1ab", "62efc30d8ffab16f", "d3d387c7f04cfa92",
    "b493defffa04821d", "83315009356e1b4f", "5496a287a2be3938", "a072681dbd185cea",
    "4814f8d16ef045a1", "5acaf83c0edbd903", "fec5d243c0af8eda", "e5870bb50411c36c",
    "dad0513def7ae493", "16280aa64c045205", "35a67e9d58774a1c", "2d9743c1caad343d",
    "ecf2bd67b292d09f", "c7257986b43b9cd0", "cc0a4e02c4e48044", "cd11c192e356e941",
    "83602167bc0fd468", "73f060cd9120df85", "3aff8a915add96fd", "9773fbac8194c3d7",
    "070a538f085dd948", "05a3caed94d5ee13", "7dbb18dee0eb18da", "27f27eb488368deb",
    "9210d7a78f0034ac", "1efb8d002b76d2a1", "432d4ce0fcae1665", "5072b7a9a4cda7f6",
    "485a94e53eba9717", "72b6378570412344", "21c10b3ba180b932", "29f0da6cc68ad100",
    "d348b6d1071e8fe2", "e2a18c57afca3a23", "ac44126b75422206", "1ebd327a3954e22e",
    "b90e00961e21fe4b", "72d0e2a0858edc91", "fcfc7c8ac3684d5c", "5b18610bdb9e60ff",
    "47d95e995c5c9f6b", "91a5ae99e2a44ec5", "8660ab7e04a5c6bb", "06a399ef16e6c6fb",
    "fdded8812b3daeaa", "08ea26b1649d5240", "472026171df17a78", "562f6aed9445a63c",
    "969522b2749dda41", "dbc7d4da6e3dbb00", "b7de07b8c3591c78", "ddc85e17ea79d3ca",
    "8fc6c39690a3f213", "677a611354a47bd2", "a20ae1310258f179", "d664d2720f2479c7",
    "c1dc077de765ff6f", "0ef73e0a260dc61a", "24884a0c9b5c97da", "948c19afca495f02",
    "342561910f50cc5d", "362b57b4a210ee5b", "d8ead3a966d78588", "456de26e31f93f05",
    "a0378a1295968ec4", "2c9aecb269982882", "031cbaf80b022a32", "2ea0f9291024c917",
    "5895ad1e8dd59d94", "c8216cac93c7eca0", "1f15c6d6cfc257c0", "16ce0bf714077109",
    "c9e39747d7243f91", "a5ba995b6f9a0451", "59e233b5a46c923e", "00beef35be2bd831",
    "eee5e06c239a58ce", "9d4385f69167a38e", "01e95bc27438627f", "1d6f1ec0f3e8b8c5",
    "4457e1a9fede8e69", "12c3d99af1ea8f5c", "b71e949d37426cf1", "031753ccca9fbc9b",
    "915dac87643017e9", "da6be41aa05525e2", "ed95c5960072b918", "4a263c7fa2323c29",
    "37d64d2dba275c02", "ea3fb7815c77caf2", "0745d34de693eca7", "58fcb664b50539a4",
    "3aec8bc37a5590ae", "be0c11029a1ff85b", "5517ea806c7a33a0", "451607a132919c22",
    "8757314662505aa1", "310c89825892ae40", "9b4c03ecc81d8e39", "8ab50e362c158dd7",
    "78bbb470b40e45ff", "a3e6abe72758a885", "e441f518014d1710", "7b99c7c09f552696",
    "d564b43ed4655fe3", "3806f7cc5c32d0a0", "17205ad5db180de9", "0395ba937c6bd9c7",
    "5151d419c12841d9", "5fcc0b6d93945477", "3671dbb3f0738b37", "df5fbc31be6f7c2f",
    "1f09bad27aa6f541", "3ed2109c678b2f84", "2d999ce379ed08a8", "9a8ce16b7971223a",
    "d4ab868d5a92d31f", "e03e654948d7375e", "cd509027f49ea588", "a8098221df10185e",
    "8ac00d43783ed7a2", "29927f1c5cc26422", "a6b184b8edd4fbc4", "44fefe7fc6211e7c",
    "0e40fc73593ba96d", "b608986d8e772b9b", "8f411d47535776fc", "3870c68c53728426",
    "e4e91ed2c4edb9bc", "0a205cb4b52ac182", "64e69c9e3c746973", "03913f8b1ad8d354",
    "cb5e3a5512049466", "0aa551d16a93de2d", "84c55dd4685a4c83", "a1f404f4b7e96fdc",
    "6feecfc9d672f71e", "444976bcb76b738c", "bc75657f8399385d", "03cc549a1b0a09af",
    "e9cbd1e2cfd9f90d", "476b63798768ea82", "61b8923bfda2ac1e", "50e941478b893b5a",
    "356f3a70dac3ccfd", "5375bb1c239b451b", "7cfd56bd167f18d1", "8c70fe8f8ed8b142",
    "2ba10e068309bce7", "f12eb09166e1d276", "2518c11a273fc1e9", "409bcd710ddfc30c",
    "9eac13f893a82260", "a1152fad348345f6", "4a0692c358fccf91", "f5b7ea17443bf9ab",
    "abb86b688476d344", "71ad28143ba5265b", "dc8b96c7e97c80b8", "a8d3d64d17274304",
    "b5bfe6aa505795cc", "b88dfedb533970a3", "65dc06a44723d93c", "356210d0c7a65f57",
    "9bb689c7c2343702", "516df0a1d30dda25", "3c9642f5feeb9e08", "1d0aa613c693c8a8",
    "ca915bc0cd0ea48b", "73834772b1cd4ac1", "8af4bf1ce5f2fffe", "08ebaf537bc301eb",
    "247a3f20b3d16338", "e57d06d32096be1c", "a746b68da595ba3e", "2e438969bd946adc",
    "db275fb3c2ef8d45", "d29619475e01f361", "c1c881891252e2f5", "37de6fbb6321ad43",
    "c6561263ef0a9cd0", "5fbbdd145ac7cdef", "786ad18a3be6253f", "f005d003d5a484b1",
    "4a9f6db5e03f256a", "2c0c5dd313c2f1da", "71b7d3acce5825d2", "22e0c4d5e2acfcc2",
    "590182198227c957", "80922a94f92430a3", "a1d5f3312035f090", "5d908474e499f1c6",
    "47b27f3db1f71c54", "57eba46256aa3b80", "5d538952bc70a6d5", "0421eb0d382cfad3",
    "adac7ddc2ad1e5a6", "9e6afce4b159107e", "cc3ebf015f255758", "28d5ac46d6c70569",
    "cf2eb35169ce035c", "f9d80a3d7e475b7b", "528d6443e786b1f3", "ddfc7b47b173cd1a",
    "e4f4b6e35cc71df5", "fe24c853972c4494", "61450bc06908e50f", "575c750fb4c706b6",
    "160aee1f5791202f", "8cb9781aaf6228b6", "7e82349e414fb098", "cdac0996f9d59058",
    "933dc21c19b4b0db", "0b3e373f33da4242", "f141cea4f2b6446d", "22bb977cce90d11a",
    "b90e79093a22e703", "4d5b1801ec91e181", "8d98bc8dcc7493a0", "22444c0fe292a00d",
    "d1384527309f3007", "d7d8a3bbd6d1dc92", "a5d97c0c6e0fafa9", "a672291d2d6211e8",
    "b4da9575f8cd882e", "2a31c319d1609b45", "a200a342867cc5a6", "9d22c70cf8445c2b",
    "27c121b07cca3d5f", "97ebef156050a1a5", "cd2da036eea3af69", "737c7f9c5eacf83d",
    "5f23b84550d89cf1", "80eff84b99b10cc5", "04ea3ed871a70b77", "0d7992a084c7ecf1",
    "e9de6b3ff9e27e5f", "9af6561194fe354a", "8046608b0396ae38", "52ea4503d4ca4982",
    "b785d208778ff40d", "6664d7e580d218ba", "b0a76b681b9000b4", "18a78409daee9752",
    "131d29f63dc9da82", "b918b1ba5a3cf6a1", "cac749dffb924d6e", "6d58abe9606886e1",
    "a385413be83c2d2d", "6758c6db697e7931", "b648e5c3ea93cbf8", "21f64e142682e5b1",
    "0a4da5491e251bd5", "fb688f19cff405a4", "50d7d77a224fccf2", "126762e65285b949",
    "74a624379d6937d0", "f5c922cb6e272c94", "14537c359f5f61fa", "abaf86b31906293d",
    "10c8af8872732ed1", "e54d7e7a2aa255ae", "d16fa1bd5bd807bf", "af78ea1c9cfb2b21",
    "32c8c3a74d459660", "f010d7d2f2f49966", "f235d4d47933f235", "d16b005cb2ebbd38",
    "ded87e5a4e7a3417", "662fafcdc63882b6", "9cde2bef8fa9f5ba", "e75b6601091b946f",
    "4742c8d4ab287a7c", "ef197d9a27e632e9", "60a1cf791c83b323", "6ba0440398015c1c",
    "5c7644b62a947996", "c1b0a722403dfd1c", "d47b74a3f47a88ef", "e88cd1add62f6fbc",
    "4b56bb6290ce2570", "bbc52d602f3bc1c1", "bcb6c8e8627dddfb", "431dd57169311c38",
    "9dbe216bb46bb772", "9cc7434287af7c87", "5b7692dc2bb51d66", "5eb628239b70a643",
    "c6eae5464d207c7a", "5687f5cfa0197e24", "f225bba528167d4f", "56f82190fd3f39df",
    "923020e062c37331", "258fa91586d062ff", "7441158a40fed158", "3690fd4c0f7a5164",
    "e672f2b3e3011968", "d0ba77639efbfede", "60e8486f024d8ce3", "7258c88193cea8e2",
    "9df1224bfd24616a", "a3ef16e6edff7bcb", "bcfab4450f51345a", "229dd7a383057139",
    "123090200014064c", "39e9db2886b0f098", "de26acc8153dfd2f", "b3435e193e31cc44",
    "d024ea5d9042bb0d", "a253fa9d61254e2f", "4e6737ae29cf644d", "8345d8bdd92b0d62",
    "f26e5bd0486ffb98", "7072356d707e5c02", "a5287a4d5a36711a", "7333834c0be1133a",
    "61ed9e4ea504b2c6", "0407927b61454947", "214cdebe5fbd6231", "6651e1da13cd52d5",
    "74ce14208b6e4875", "79d4e65b3175d97f", "c9105b24cb1ecb38", "3472224bde2331fe",
    "291b436f4caf68f7", "fefe86bc270f2853", "d02fd78574bd83c5", "34fac68e1c3df6c5",
    "0495d9df60213178", "99739b7e859c554c", "90f80fc97201f302", "18dd34aad6d0b2f0",
    "fd9c3df1f219239e", "9964fb14dc6756b0", "49de1164ae442617", "32118fed56f35a25",
    "21f9c54f3f99f947", "7e9a49ab5f7ccca1", "b3a34e40a46e4b2c", "d7e087c7fb0998a2",
    "156b3fd56ef3ce82", "b2743ae0c4a6bde1", "9482da5ed0dc71d0", "5c385ca65dce9ef5",
    "5fd5c3404ae24394", "ac462666d70c29fb", "d6cca8dc0cd3ba91", "43762dd52bbc951a",
    "cb21efde3d0e7383", "3123833e1908900c", "b812cfea9d1928b6", "4b94bdf12cc9b7a6",
    "6fb5b90ddf97a563", "c5536870947ed659", "55d5c8db82fbf5a1", "49d3ac3ca2601a0d",
    "51d2087bd9a25fe8", "c74f5c549b49b882", "5f0af4c01bda5732", "186d5d0f4da11291",
    "c4cd64493edba0d8", "fa6e8158542e6108", "895666eb1b43e94f", "d87a4df23a42960d",
    "a243cae51c09fe09", "b5c7f7779e9ab035", "144103abe7a6cb3d", "8378394c3098bbae",
    "8fc01e527cdbda62", "e96171f943c5b490", "0decdb549f5fb864", "576fe6b85167dc6e",
    "2b257ce0872649a2", "240428ddbd2efa1c", "6ea3c683610978d0", "5f115acd9a4df52e",
    "70176fdb7e7649b4", "ce79997ae772d536", "310baae8717ba4ee", "21a183d02ede7e11",
    "85cf4446382b008c", "c3d87fc1fe1aa22e", "4d3d4323e714b5a0", "db3242b006c53ddf",
    "719b0f9a26161c2d", "2e614b35a61b8db2", "9135b7a476761bd0", "c2996c0c13c00e42",
    "9f1de60de6aa3918", "1df07fc6ad3b7c82", "0381aadad3ffb029", "13d7947d17beec8d",
    "e81a2e02e8821c98", "88b97993ffae4229", "e489e66c9b898568", "d6359adaf58c01a0",
    "f4ad76aab4bf9800", "a1c71a05a21b7b90", "0edfb150f6639d26", "2ca496506306b2eb",
    "4b34f21f83ee24fb", "b464f1fb9dad8f48", "f0da777202d326a4", "e9093402726ff785",
    "3e48c03019e44c51", "279c1b1f136b2ad2", "e4ad8eee0761272a", "9776ceb8ad574dbb",
    "df89e3ab6236e967", "7e43dd4e2ae596d6", "012044eacc00f91b", "5c19a6880023ce15",
    "c43bc4a793e52486", "3d96b94ee884c434", "7eebe3e78e1bea13", "eb844a336fde051d",
    "92d650f6448525b1", "b87a328486b09301", "d896d4ae58ddb4dc", "326c401cec754d56",
    "63a8f8d5748817d2", "7bc9ef8eac2ecc25", "16b4f63b73a122e0", "621e3bd0e3aa90fc",
    "9e65d210bad953de", "58ee111b205f9712", "16817a00cc0f6310", "83e1166950402e01",
    "e1c38f63c4f4f786", "537f8f2d99648b53", "814f19f43d5d5b46", "eb4c31b6a063a730",
    "0d61f37baf61397b", "5763890f73b98786", "2e8754932876883c", "e597d6ca63031eec",
    "3225c01723b6f5b9", "895520fba17cacab", "59dd8b58325297ec", "68cb9dc5084d8593",
    "ac43d75543741df0", "edecaa614d15dbba", "6fd085290bc38794", "10eb0b11a4245555",
    "09f3823f3b2ee910", "c1dc18e6a03c856f", "ead95e773accd794", "31188e6e93e1ae70",
    "b7b43f7ada3150bf", "3afc4b64e4eb7e06", "6a3b01ffb2de6389", "7730e91e6807cb5a",
    "ea28a5d14a2fbe50", "51f82320556dc7f3", "b65167573aaec8dd", "f06ce28c9d507fcc",
    "b30c6f89431e510b", "fa1dae1966f21861", "ce7ef0e07cc956e0", "72ce0f16f11e26f4",
    "9548a3ffb5ce9714", "dd1b290ba0bccc19", "cf4962f5b9d7beb5", "0d31ccf2178801c0",
    "ba578a1ef130ef2d", "85862e17d474cfc4", "3e2d5318a322c437", "58ef62775790181d",
    "4b78f48b7c51732f", "0fd87404b048ee84", "d47819cbd37e99a5", "2fcb47d1fb232e50",
    "0169c8dcc5a188ff", "f755c3578c75b4fe", "584612637ae07a78", "29cf345eef8ce1d3",
    "422c2b00661044d4", "f669af1d67aafb29", "0ec6cf766d6daf42", "2a2f4bbf081d3202",
    "6742ea9e36dc7f8e", "3464920e9b25ca27", "ffc6507d4fe0bddd", "948f9a424205684a",
    "6b5355b9912784e3", "909d2389e253c43c", "020a6ed7f59265be", "c8462c26a8aabf69",
    "5e04adff249fe1cd", "4592960240e957cc", "6fbe1918a1db5296", "f572dd6a5f6bdfd5",
    "758da70c09a855b0", "76d1499ef0d6ff90", "d58bb828764edd1d", "ef315775f747906a",
    "bcdf8c6b39598e1f", "566bdd83cf7ddc5e", "a20422cf24c96c75", "d119fdb1c3e0c7ce",
    "dabca020e847306a", "e6f70fc9cc92450e", "6916b50d999325af", "6798f761e510f30c",
    "62d3cd6283430087", "05e3e0585f4a9f59", "3082df5d95f40974", "89c4ad6c2c657b6d",
    "849112f7b4295117", "ac6af4261ecc48d7", "4f095e720f683559", "ee880c0bad5cc005",
    "169b1601c98ba30a", "9b806e1aced65b59", "a18e07bdfe3225b4", "55baaa7ba8c91618",
    "208e5dd0d708708d", "edc0e070cb4ee9ea", "d898b8f6cda6a698", "d9d5ba97d60e82ac",
    "6a7fefc8d465833c", "fcff6706a9c2a9a7", "9c05b0ccf511a538", "84d8fb3250d0043c",
    "889e2a1531c34aaf", "03b744539f1ba45a", "c9fceacdaa2f4812", "fa9a83dcd7c50156",
    "db13bae027bbaf93", "f30e5aa319830c67", "aced707b7d6cbed5", "04ff89c664b086a9",
    "de34f07070b10db4", "a8db88b53d711a57", "a354fea1024398e9", "f35d1773923ea2e1",
    "436ccecb80a32f80", "5170f19d48209534", "e292030b717f248b", "72c958be34014e70",
    "70c948a5916bd137", "267def26d4369cd1", "cc640e802a5e9252", "1fd6d19021231e1a",
    "09548ce64f296b33", "78da85a30d423398", "901b6a738eefa27d", "af402d7497cdad10",
    "734acaa71aacaada", "867b98099cb6238e", "29b77482911fde6f", "e3ce813df89938f9",
    "4a14c6f1f876f509", "41d3c0eb56f867d5", "0fff0137c7b77c07", "5d8238a90201bcda",
    "21b7944ca0628fe0", "eb2bf6b4fae9bb24", "4a7198568e7ce21e", "b47ea157b5af422b",
    "427b140d2365e68b", "a26fd495f82993b2", "507d66f219dbb4c7", "817d646fd30b7522",
    "5fc9f20af622f4ac", "4d3bf3e142808c4a", "d04fcca5def5a75f", "96c3eb4788d44fdb",
    "a815ee003d8136dc", "539baa32494a4f92", "934e25409790544a", "0e073b80f6ebc714",
    "f8221453aa5f688d", "65c4a5ee1f79c9aa", "0e2102ec3dd600ff", "0afc8894ddbd1512",
    "674b127b78b5f677", "a30f140b2d1a868e", "434cb7dea08f7557", "5c1e1f6d487db693",
    "e1d2fb6f166bd73d", "2151622790a4855b", "ffcd6b6bcb3daddd", "f87b500217fd10f0",
    "8cf55a5443e2df86", "b0698590ef856058", "e31a60eb98c8f084", "f4a41ff296d21270",
    "465126a88186f8fb", "83435ecc277db00b", "f441b7ee17f9aecb", "10e119a0f9d25196",
    "ba580df60535bbcb", "28a39d03419112f2", "961cd9981d9c3bee", "9edc3ce465895821",
    "46338baa4a47fc5a", "0cb299df31408251", "a6ad17ac959ef150", "090cfb7ff24c23c3",
    "7dffcf8eae88f697", "541aae545bb4e974", "723e73a9a58ed75c", "c669018afebd3a3c",
    "4a3b2223bb3410c5", "66aaef11fd444baa", "f7d7991f18dc1092", "efd2d52d48cc70a4",
    "af8556b91df731d6", "6e6b39e3a22ab6ba", "65697b99273927b3", "1b496dd271ab565b",
    "c9ea81d67a2842c2", "7945fc24b91aa1ab", "c0367f19d809a1ca", "8625850f503df493",
    "5a6b189426d6bd3d", "a0b1c89c303a7417", "213474f893ade247", "6b972e8aaed44d6e",
    "c57fb86dc957e7e8", "bc7682fd8475a0b5", "8e917a5b5ac7b0dd", "d6d95d4f3fa56f66",
    "d5e23a4ff1d54f0b", "717e0b723a5db17b", "c75e7931085c54e2", "74cbaa01746ee6c7",
    "8cf34e758b9bade7", "b24ad2256593e064", "e3ac3d1c203ebfd9", "4df30f9698bdf07b",
    "7527a4c39268e4b7", "47bcfe214a41208e", "070212e1bf05e595", "0ee8d3487acc52b0",
    "bb882490ea0c48bf", "184d177b78a8fd84", "2c74f64b6ca118f5", "5cefdf4d4fc8ea28",
    "e0ed447da78e9340", "223fb65efb284dd2", "369f4a71772d2dbb", "2f79242b84f27940",
    "e451779bcf730e0c", "73dff3711aa547ae", "54fb08596aa0c469", "b830f2a2b8b4bbc9",
    "5b6515beba037eec", "536c92f7ccd6e26e", "9c97241c86bcef68", "f467e39b3ffbe253",
    "be2de781c1e10655", "f7d9985f0fefbdad", "7c29cf585047aee4", "2ad434ed13fdccf8",
    "1b1ec2817666a595", "a038590fe5fd57d4", "b438176184677c3e", "c60c0a6e8514c005",
    "d838cf58e8ddd7ac", "09cf864ca1122980", "a0c07f39d1763682", "8f2aa905c9b31b38",
    "32834ca2cf77aed7", "7cd244c731a5b800", "4eacfbe4ad587ae4", "98a4922fa43630f4",
    "9ac5455e0a2c6e64", "f6a1bb6bda8d5086", "cfc748dddacf35cf", "57f9c7eb573f93bd",
    "15d78ae66ab77cff", "533a85347062c636", "574ef269335b2b56", "b698ebc96c1e7c8f",
    "73bd9d7abc169c3e", "74233784bb85870d", "a82e4b25855b5142", "ed802b637e0aa379",
    "fe2b079dacdc7de7", "13964d5528403ff1", "7fd2d398c19d7c51", "2a7131603ed756c0",
    "45f998588a0de89a", "508877af7f91d014", "a60351e71a5fc07d", "aeaa804173d749eb",
    "20f326ea485ed32e", "a4c3905c8e94f182", "c3ff9f4ebc139c8a", "7ba181141538a50c",
    "edb60387341809b6", "5bc6cc4f1836b1f7", "7efe2862653d293a", "1f25dac1e17cbce8",
    "397eec2d121e4088", "2fa66c0b06374765", "2fb0704567e5aab4", "ed16149cdf22ac66",
    "9b86806a95c1c31f", "f5e338ae5da3eb8e", "4f9dae396f29b1f3", "3a6917f170e96c02",
    "3be6b2073a4970b7", "2d4c28cc873d0913", "6d2fe5f0ad1971a6", "3015484180c36693",
    "aa5678018ddc4ba8", "4bc15de316028edd", "a728cfc047036488", "085d6e3e114bd596",
    "83ccff6156f9eb56", "3e0264055d855713", "33657f28acd8111d", "b651ef5e018a872f",
    "ebf68c2869ead50e", "83df72aededa7647", "aa885581927b5d1e", "c27ca7a8cf66434b",
    "4d547681fbb5f664", "fb6b6edb53dea1ad", "5a3e022a4d824fcf", "9342a878bdb92654",
    "263da78ca16a0363", "e3913b44453286c9", "a37cfd99796011f4", "52197c9e78cfd381",
    "3a9089d9f82f7eaa", "f408583163d322d4", "cc3709819b144584", "87cf5ce2f3fb8789",
    "c8a3f06c8a11bd35", "48571fb887851f90", "97accc1acc41af0e", "f5cf7de236cff1ec",
    "2e62b9e0a99e09f7", "dec8277955c83589", "4d990839f0f45987", "4ca7b0063d323623",
    "8b372c21022e9575", "8b819626dc0c438e", "9d0c512f28bc87c0", "e412cf497ba7ee45",
    "4a01b9bf860831b1", "f06c858748e9efde", "d92d5ad7c4c8073c", "59f91bfae66b9217",
    "ca12edee3d5eba2b", "c9b697cb90d51ead", "291847363700b529", "1e15edfaf9283707",
    "c06ccdc267c690cd", "ea6863567e536efe", "54c3e7569f476b5b", "6c830248d11443bf",
    "7ea00a207fa3c7cc", "46d33842b6be5e24", "a37e45ccf676398d", "21ca047693bcfd92",
    "849f433fd117015b", "4c53d42e7a722757", "d063e88e3501aba3", "0cd9d4679356308b",
    "a11cb5f1336ecbe5", "b8a13afb48c53649", "4518e9d9dddcb733", "0867d9b369ddee6d",
    "43a2520fc5a0ccd7", "fd5e13ed63121c0d", "d80d0c508698f104", "2a382b842405a49f",
    "12cd8d1481be8e0e", "f48332ab103e05e1", "81193a309fd84951", "05fab63864b9c8bb",
    "acbfeb1e6f4f0305", "b6dbcb440aeb8bdc", "e48bc1c601ebf50b", "cda30f9bde5a2a8c",
    "367e244646541716", "52da5df2109c391c", "b1096649ba2295dc", "b393214f38eb16a9",
    "ebce9ef0583b3820", "d07d8fb93b6badff", "3409b396824e84b5", "ed0d0150fefeb486",
    "c11f5efe3b78af7a", "d3db9fc6a1369a7b", "ec1694b47546bc85", "ad5f2062ef29c614",
    "bf7e6fcc3ad1a6f0", "e3fa2bf907abfa7c", "5ae63185d6b5263a", "e5f6d3bfac80687a",
    "eeb5ed87e603da7a", "2929cf9976c8d6f9", "acd037522eb43a91", "7a8108852dda604e",
    "3f01b0d710f92512", "9f06957afdda0a35", "5641d32151a61d05", "cda3a90f258f40b6",
    "7db4515d8765b81c", "f95e7e36397d26f6", "153c3a8c052460ee", "d45f503128bbbc1c",
    "76614ff1ad76ed8d", "6a4cef614bf85774", "38cc7dbbf0373be0", "ba39fa8e9af91598",
    "baa23ec32ea24186", "b5b7e54dcc74d2ba", "27f40b200c2a71b5", "d43efe5e908a7879",
    "bf4a45ea36697ec5", "9102e00ba92daf51", "40cbc2aa6db6dbff", "4578110a88b55ff0",
    "7ae59dfd19aa3883", "a20b984ec98eb8cc", "f9cc912454c4a9c8", "f96325369102f253",
    "19ab18b66cbc7747", "e3d1d387d081caf9", "9bd5c75af3c76116", "f558183d0852b050",
    "c2c6fd2f4573ff33", "ceef276e75eb288e", "c1fb3d8e0ae288d1", "312b4072992c4937",
    "932770fd53622e2a", "65fb0bec19003f39", "b3769ad90a7965c9", "2a1bb7209f9984f0",
    "943f066339e10b25", "a52078b0e49849ba", "165fafb3fb88d7a3", "af545404bbde847d",
    "0271db6bd9a3bd76", "7236c0956b128084", "6aa0f3f991a146ac", "39b7b4c544059d6d",
    "a4ae2f4b61e1ad4e", "cf57840bef8c8810", "dfc482c915e4b06e", "86556a6dca3a6959",
    "4550a0e0e7c1f5da", "eefc51b5660db193", "72273d93609cab19", "0e24ef518e830ffe",
    "eabf8be52006d8ee", "7a3cbe0919ada330", "b418d563b04d1bc7", "b6477ddeeb2729b8",
    "8cbcd69eb852453d", "d64011a356638f45", "c269873ca5e0d6f8", "932f36673279bb5d",
    "a3dd443ca1826369", "17a397cd2562a1a4", "bd3c09b6b81c286e", "0c934ac534f8bec3",
    "d4f4920d0451eb08", "4e14b25f9742fa58", "cb3b762cb2b13c1e", "8a62d11919f8058e",
    "4a65896446b7855c", "0b2da6eb81d12846", "ac29930cde821ec1", "f6b3318e7e587a01",
    "2952818f981b91f5", "a843cd5361f30d7f", "394eaf38bd8f1ffe", "a98a6e4beaf19945",
    "4327275ff640e107", "f03b744a57cb3bd6", "5e5c74a031ffbc5c", "7606ed5680a02085",
    "e1ea083c08ee56f4", "73dcff3f1247cf24", "8fdaf2f9e9f1259f", "5a481029db314759",
    "f98c65257fbd7db3", "791141d764877301", "ffd31a586e197861", "1097c330570f05ce",
    "4cc8d82d6a864ee1", "97f20a1b83443932", "7bbb1a69bce6859d", "62204f6daba9d0fd",
    "67aabb749d233a4d", "11a6272b66fe02bb", "71152dd57b539f3e", "a06fd7c32a031dc0",
    "dea000c32bfd8c66", "bece0a7d94c33941", "878d8ed7dd32a5ea", "893d5232ce20c380",
    "533b698850849b79", "129fbb7ade2f149d", "f396cbc9f7102a00", "91bbfd476d0d447d",
    "181cd79a2f15a5c8", "393906528eb5b01b", "01bc1d8355b11386", "53d1c5b9fcccf795",
    "5f07259a04d410dc", "9f892341a6b72b81", "be26a6bbc2c9ede2", "cabaad65a8defa9d",
    "640cc685bfd49a98", "9c741e3193dfb517", "8f54d2e3369006f2", "237c7606f41a5970",
    "efebe81c7c48e5b1", "fdd05fcfa2e135fa", "3b3963bb44cfdc21", "67fd1689b555e3dd",
    "cc2590194f710685", "902a6fb21b5ca8dc", "9f0e267257097734", "f951c50216fdf900",
    "583860e60cae1aad",
};

// The first 8 bytes of HMAC-SHA256(k[:n], m[:n + 60]) for n = 0..200:
// python3 -c "import hashlib,hmac;m=bytes((i*131+7)%256 for i in range(1024));k=bytes((i*29+3)%256 for i in range(200));d=['\"%s\"'%hmac.new(k[:n],m[:n+60],hashlib.sha256).hexdigest()[:16] for n in range(201)];print('\n'.join('    '+', '.join(d[i:i+4])+',' for i in range(0,201,4)))"
constexpr const char* kHmacPrefix[] = {
    "664d3b0e4e55ee0b", "984407579aee15a2", "f75b9122eaa0be44", "57c79e2bbf4cee2e",
    "a8a9352caa772fdb", "cdfa3e40f906db49", "2e2ec0b0568cdd45", "42973d5dbe725408",
    "a0ae2fdaa8e1ca79", "9cd0fd994c2f4f4b", "b225f331ab9947fb", "a324f65bbac2f452",
    "a8f16500a8e8eba8", "06b778d8fe573b23", "1469d4f1d2b92250", "ff7ec3f0882b5add",
    "a739dec3a0e228fb", "e154e1d707b4518c", "727fe0310f373422", "4a642d9ab8b764a1",
    "4271293ffb61b22c", "123396b77e35b06d", "01f1858d432bf0be", "e41fe3614c4aaf33",
    "aacd9260a50ebc5c", "35a54677a41a801e", "29454091257ba006", "b215b4b144eeaafc",
    "108770f57410090f", "5be1908b437504e0", "bf1d33339dd37ec3", "6e2a6e3123a524ac",
    "52f1ddc3ed708310", "e06da6858156bd10", "6fbcc69d6605fc12", "8b5abd38dec03a9f",
    "ae1c9eec43c686ac", "aa231ae89346db22", "b409e07f5aa35ac9", "579a06849d8df398",
    "5d5b194641ad5101", "5931dadf5ad83032", "771d0b7d3f3c0133", "62435b6923c0666b",
    "e878339e6879ef2c", "62c21db684578aa6", "914107dab9d23547", "bde74515eb7c38ed",
    "7285e97eb0cf6ccb", "b519d73f30cec0b3", "088fcd1e26a420ec", "ec82600e0cb6413e",
    "67ab956e00c3561e", "2ae28f8bcaa75776", "0ad047ea47110463", "e4aca8ee75f6ce9a",
    "e9ad94d3e574d795", "a362042ead5625f8", "07525bf67262c450", "19e0380fb2167f3f",
    "5ad700dbeb5d8ee9", "e8546b4a6f583494", "d782822f7541bbb7", "9b90291901c50ce5",
    "6bb8ae63d0b1ae4f", "c2fd82757fd6458b", "d0a2dfc754179b05", "7f47731d3f3b58c5",
    "3e213c26cb9dd002", "94de229b445a0002", "e398889bbb2dc2c1", "82ae52b9fbf081b8",
    "466940f542e86bea", "229ef8c21a569571", "08fe6d6987178315", "ae47cb410f831d2b",
    "1d7e8acd8c88db30", "0e7a1d13e69fe318", "593189335df69d0e", "f076ecbd65bed1cb",
    "e68a0989b6cb5b86", "50dab76180eab03a", "5d12f69afc8738a8", "4dac1b002e79327a",
    "4250a6fca96929f7", "fabddb740265caef", "6daca68e3056fceb", "b3270734c6c79db7",
    "d3efbc34260971e4", "9da2b1625d95e3f6", "805f33c068be0f67", "b92c533fa5aa4726",
    "84d45257a4bb3df6", "336777300d137004", "80d9cddac243c1f3", "79ccead55bad0666",
    "33abad03f597b3d5", "09946fd4eaf995a2", "fc60f11467ff1d2a", "54bc5a2b56540102",
    "d41e381cc3ed5db1", "eb029df86f82d41a", "f785c28084c179d9", "798ab1774b76019b",
    "5efb9e666eba4be7", "b72781973c26971f", "5919c687d708b4ee", "fe3b8f058135ce4e",
    "9d40f74eb9e999b1", "f468cd02e6b85efa", "27afcdec40041c2a", "b88d409939eab703",
    "ff0799903b98a562", "f2d560b2c9d33f24", "0102d2c65153747d", "2b0bf3d3b5c3ea04",
    "5a186de33316b99e", "850f6a2a885f64be", "816cefcaec1e6af1", "a587aed768ba6963",
    "8464671f69623ffd", "0b7d356c3a052d0a", "e2b3e31b367830d9", "fe3ecbab4d73526d",
    "50f969da28a8864a", "572a665c4f8f0ee3", "ff6c0b9d0b70533e", "76cbc29bb73c22b0",
    "c9d605c3be739203", "6f190b6fa880fc58", "3c69887ce73cbfcb", "df7143dc9c8e25e0",
    "adbd1d917c0bd4e5", "00b95f3c547f6797", "12dfa663fa2e7497", "953f8adc6bef0014",
    "a8024a1dfe9675ad", "8494258f816ed0ee", "0fc2a5b72dfca3a1", "e416655578e75ac8",
    "5a5a516e7004b04b", "f08daa24c8043900", "0d90e6f476015236", "19d644f12d03d54d",
    "066c91c29d2d6e31", "a109e5894be68548", "8047ac4eedb4edcf", "f5d7c75befdd5820",
    "54d187f349aaac76", "8bb3ccc0f7452305", "b12e4a83b4c0fd4f", "fc3a7735eceb25f0",
    "4c419d680ade9ba2", "815ed6cfb3c70fc3", "63e554ef3ef27e1b", "0c55b1ef904338eb",
    "1d67fa643415abc6", "938fb38332a82f45", "6df7b16ec5bcac49", "c46795e3e485fbb5",
    "a5acafebae531cee", "8b2e68edb383f952", "3eec6cd93d35e46f", "b97d8f859c2626ba",
    "94424c589716f72a", "97e0b844b2f64884", "9723160d89bedf1c", "118f94ca5607b69f",
    "1f8da182eaab2b70", "c1cbada5fabcc902", "9a0ff86648b31b29", "b35b495cbbbcac9c",
    "7bc77bb731452c52", "a6a3840f9c2f9096", "ec872f84766dd199", "dcd331577e0d148a",
    "12edc34056487649", "3fc956ca1865bf36", "ead31c1c75f094f8", "3c0a178da57d6705",
    "961c1a17a62fd05b", "68bb48b4fd637e0f", "afc771ef194fd4c4", "a9c31621ff1e2196",
    "ffced97216f6fb35", "97ad708417eb0b84", "8820826daedd4bbc", "9ff6119a70d9da04",
    "6331b2f89a4fc13c", "b2a9a1fcaa6ab33c", "60d8eb6c07cf7c54", "2c6cd849e8c47fac",
    "e17b8a3aa745102a", "d681840e62daf12e", "8f5a4e0977e309c5", "189e383191e1709a",
    "f3fe46f8ad349601", "31aab809c20d2085", "726da9c4ddba42fc", "9821f97ccc7d1ada",
    "93a9b2ab8c1fabf0",
};

// SHA-256 of HKDF-SHA256(ikm = k[:22], salt = m[:salt_len], info = m[:10],
// out_len), a zero salt_len being the RFC's absent salt:
// python3 -c "import hashlib,hmac,itertools as it;m=bytes((i*131+7)%256 for i in range(1024));k=bytes((i*29+3)%256 for i in range(200));H=lambda K,D:hmac.new(K,D,hashlib.sha256).digest();okm=lambda s,L:b''.join(it.accumulate(range(1,256),lambda t,i:H(H(s or bytes(32),k[:22]),t+m[:10]+bytes([i])),initial=b''))[:L];print('\n'.join('    {%d, %d, \"%s\"},'%(s,L,hashlib.sha256(okm(m[:s],L)).hexdigest()) for s in (0,13,80) for L in (1,32,33,64,8160)))"
struct HkdfRow {
  std::size_t salt_len;
  std::size_t out_len;
  const char* sha256_of_okm;
};
constexpr HkdfRow kHkdfRows[] = {
    {0, 1, "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986"},
    {0, 32, "48928ba1f9c763c1e58e62872d747cfc7564ec433de842e895d1914eaea56a09"},
    {0, 33, "a837766e01469fef0b877a41a419c3b1347bbd86bf902168ff005fadb7fd9dae"},
    {0, 64, "a35f9a65f8867477dcf9dbc2b54735e4ac4873413ca1a1fd52dcd7a45d4749f9"},
    {0, 8160, "87131df03a9632a662fce905893ad9ea31df56ffc251ec4ffc1a494631895849"},
    {13, 1, "de2e331d891ae267a7009cb45b4e8830f170e0c937288ea2731a1941c7a53b0d"},
    {13, 32, "3005790e4dcf71bbd8b8b3913ed680b3d71e3e798f0b91ab9630752a92099140"},
    {13, 33, "5d8584af0d1cbb752cb2ac6aa8c16115c8d7516deb21ae49321246e425679a38"},
    {13, 64, "f811337dc89371b5eeaad5864fd2eec7c80b21575ffd22ba31bd2d1bd873c476"},
    {13, 8160, "a455c83b622e9a94a574b24729c0629aae616101ba8bac63001ad10fce2a9cb3"},
    {80, 1, "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"},
    {80, 32, "133259fa62b6eae492a923e432184f087a5a8c07417bd1c5f66b0288f0a9277a"},
    {80, 33, "6f49f499be86aee6e5fdc680ce0ee0e5d05109b89192a1572819081eb0c1af26"},
    {80, 64, "d848f489d81f6f51735e3f65ca24e2cd4b5728b4767a8ada674b5bd98db58850"},
    {80, 8160, "f901f2e5ca4e87b0a0fddb181e0967c5f8cbbccc7904d21e9b55a28167c47e95"},
};

TEST(Sha256Oracle, EveryLengthTo1024) {
  ASSERT_EQ(std::size(kSha256Prefix), 1025u);
  for (std::size_t n = 0; n <= 1024; ++n)
    EXPECT_EQ(hex_prefix(Sha256::digest(message_prefix(n))), kSha256Prefix[n])
        << "length " << n;
}

// Two update() calls at every split of every length 0..130, which puts the
// 0x80 byte and the length at every position of one and two final blocks
// (55, 56, 63 and 64 bytes included).
TEST(Sha256Oracle, TwoUpdatesAtEverySplit) {
  const Bytes m = message_prefix(130);
  for (std::size_t n = 0; n <= 130; ++n) {
    for (std::size_t cut = 0; cut <= n; ++cut) {
      Sha256 h;
      h.update(m.data(), cut);
      h.update(m.data() + cut, n - cut);
      EXPECT_EQ(hex_prefix(h.finish()), kSha256Prefix[n])
          << "length " << n << " split at " << cut;
    }
  }
}

TEST(HmacOracle, KeyLengths0To200) {
  ASSERT_EQ(std::size(kHmacPrefix), 201u);
  for (std::size_t n = 0; n <= 200; ++n)
    EXPECT_EQ(hex_prefix(hmac_sha256(k_prefix(n), message_prefix(n + 60))),
              kHmacPrefix[n])
        << "key length " << n;
}

TEST(HkdfOracle, OutputLengthsToTheMaximum) {
  for (const HkdfRow& row : kHkdfRows) {
    const Bytes okm = hkdf_sha256(k_prefix(22), message_prefix(row.salt_len),
                                  message_prefix(10), row.out_len);
    EXPECT_EQ(okm.size(), row.out_len);
    EXPECT_EQ(to_hex(Sha256::digest(okm)), row.sha256_of_okm)
        << "salt " << row.salt_len << " bytes, " << row.out_len << " out";
  }
}

// The constant salt keyed at compile time, as SecureGroupMember uses it.
constexpr HkdfSalt kGroupKeySalt("sgk-group-key");

// The keyed-salt overload, into zeroizing storage of `out_len` bytes.
SecureBytes keyed_hkdf(const Bytes& ikm, const HkdfSalt& salt, const Bytes& info,
                       std::size_t out_len) {
  SecureBytes keyed_okm(out_len);
  hkdf_sha256(ikm, salt, info, {keyed_okm.data(), keyed_okm.size()});
  return keyed_okm;
}

Bytes rfc5869_case2(std::uint8_t first) {
  Bytes out(80);
  for (std::size_t i = 0; i < 80; ++i) out[i] = static_cast<std::uint8_t>(first + i);
  return out;
}

// RFC 5869 test cases 1-3 through the keyed-salt overload: a 13-byte salt,
// an 80-byte one (hashed to its key block) and an empty one.
TEST(HkdfSalt, Rfc5869Cases) {
  EXPECT_TRUE(ct_equal(
      keyed_hkdf(Bytes(22, 0x0b), HkdfSalt(from_hex("000102030405060708090a0b0c")),
                 from_hex("f0f1f2f3f4f5f6f7f8f9"), 42),
      from_hex("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
               "34007208d5b887185865")));
  EXPECT_TRUE(ct_equal(
      keyed_hkdf(rfc5869_case2(0x00), HkdfSalt(rfc5869_case2(0x60)),
                 rfc5869_case2(0xb0), 82),
      from_hex("b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
               "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
               "cc30c58179ec3e87c14c01d5c1f3434f1d87")));
  const Bytes case3 = from_hex(
      "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
      "9d201395faa4b61a96c8");
  EXPECT_TRUE(ct_equal(keyed_hkdf(Bytes(22, 0x0b), HkdfSalt(Bytes{}), {}, 42), case3));
  constexpr HkdfSalt empty_constant("");
  EXPECT_TRUE(ct_equal(keyed_hkdf(Bytes(22, 0x0b), empty_constant, {}, 42), case3));
}

// The keyed-salt overload is the one-shot HKDF: for the constant salt keyed
// at compile time, and for run-time salts of 0, 64 and 65 bytes (the RFC's
// default, a full key block, and one hashed first). Every ikm length 0..200
// runs at the output lengths around each T(i) boundary, and every output
// length 1..128 at ikm lengths around each block boundary.
TEST(HkdfSalt, KeyedSaltMatchesOneShot) {
  const std::pair<Bytes, HkdfSalt> salts[] = {
      {str_bytes("sgk-group-key"), kGroupKeySalt},
      {Bytes{}, HkdfSalt(Bytes{})},
      {k_prefix(64), HkdfSalt(k_prefix(64))},
      {k_prefix(65), HkdfSalt(k_prefix(65))},
  };
  const Bytes info = message_prefix(20);
  auto same = [&](const Bytes& salt_bytes, const HkdfSalt& salt,
                  std::size_t ikm_len, std::size_t out_len) {
    const Bytes ikm = message_prefix(ikm_len);
    EXPECT_TRUE(ct_equal(keyed_hkdf(ikm, salt, info, out_len),
                         hkdf_sha256(ikm, salt_bytes, info, out_len)))
        << "salt " << salt_bytes.size() << " bytes, ikm " << ikm_len
        << ", out " << out_len;
  };
  for (const auto& [salt_bytes, salt] : salts) {
    for (std::size_t ikm_len = 0; ikm_len <= 200; ++ikm_len)
      for (std::size_t out_len : {1, 31, 32, 33, 63, 64, 65, 128})
        same(salt_bytes, salt, ikm_len, out_len);
    for (std::size_t out_len = 1; out_len <= 128; ++out_len)
      for (std::size_t ikm_len : {0, 8, 55, 56, 64, 65, 200})
        same(salt_bytes, salt, ikm_len, out_len);
  }
}

// The compile-time midstates recomputed two ways at run time: keying the
// same salt at run time, and plain SHA-256 over (K ^ pad) || m, which must
// equal the hash resumed from the midstate over m.
TEST(HkdfSalt, ConstantMidstatesMatchRunTimeKeying) {
  const HkdfSalt run_time(str_bytes("sgk-group-key"));
  EXPECT_EQ(kGroupKeySalt.midstates().inner, run_time.midstates().inner);
  EXPECT_EQ(kGroupKeySalt.midstates().outer, run_time.midstates().outer);

  const Bytes m = message_prefix(100);
  const std::pair<Sha256::State, std::uint8_t> pads[] = {
      {kGroupKeySalt.midstates().inner, 0x36},
      {kGroupKeySalt.midstates().outer, 0x5c},
  };
  for (const auto& [midstate, pad] : pads) {
    Bytes padded = str_bytes("sgk-group-key");
    padded.resize(Sha256::kBlockSize, 0);
    for (std::uint8_t& b : padded) b ^= pad;
    padded.insert(padded.end(), m.begin(), m.end());
    Sha256 resumed(midstate);
    resumed.update(m);
    EXPECT_EQ(resumed.finish(), Sha256::digest(padded)) << "pad " << int{pad};
  }
}

// RFC 8439 section 2.4.2 test vector.
TEST(ChaCha20, Rfc8439Encryption) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  Bytes plaintext = str_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = plaintext;
  cipher.process(ct);
  EXPECT_EQ(to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, DecryptIsInverse) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x24);
  Bytes msg = str_bytes("round trip message");
  ChaCha20 enc(key, nonce);
  Bytes ct = msg;
  enc.process(ct);
  EXPECT_NE(ct, msg);
  ChaCha20 dec(key, nonce);
  dec.process(ct);
  EXPECT_EQ(ct, msg);
}

// Draws of any sizes, block-aligned or not, continue one stream.
TEST(ChaCha20, SplitDrawsContinueTheStream) {
  const Bytes key(32, 0x17);
  const Bytes nonce(12, 0x71);
  Bytes whole(300);
  ChaCha20(key, nonce).keystream(whole);
  ChaCha20 split(key, nonce);
  Bytes parts;
  for (std::size_t len : {1, 7, 56, 64, 0, 65, 3, 104}) {
    Bytes part(len);
    split.keystream(part);
    parts.insert(parts.end(), part.begin(), part.end());
  }
  EXPECT_EQ(parts, whole);
}

TEST(ChaCha20, RejectsBadSizes) {
  EXPECT_THROW(ChaCha20(Bytes(31, 0), Bytes(12, 0)), std::invalid_argument);
  EXPECT_THROW(ChaCha20(Bytes(32, 0), Bytes(11, 0)), std::invalid_argument);
}

TEST(Drbg, DeterministicForSameSeed) {
  Drbg a(1234, "label");
  Drbg b(1234, "label");
  std::uint8_t buf_a[64], buf_b[64];
  a.fill(buf_a, 64);
  b.fill(buf_b, 64);
  EXPECT_TRUE(std::equal(buf_a, buf_a + 64, buf_b));
}

TEST(Drbg, LabelSeparatesStreams) {
  Drbg a(1234, "label-one");
  Drbg b(1234, "label-two");
  std::uint8_t buf_a[32], buf_b[32];
  a.fill(buf_a, 32);
  b.fill(buf_b, 32);
  EXPECT_FALSE(std::equal(buf_a, buf_a + 32, buf_b));
}

TEST(Drbg, NextU64RespectsBound) {
  Drbg rng(99, "bound");
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_u64(17), 17u);
  EXPECT_EQ(rng.next_u64(1), 0u);
  EXPECT_EQ(rng.next_u64(0), 0u);
}

TEST(Drbg, NextDoubleInUnitInterval) {
  Drbg rng(100, "dbl");
  for (int i = 0; i < 100; ++i) {
    double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// A Drbg is the ChaCha20 stream (zero nonce, counter 0) keyed by
// SHA-256(seed as 8 big-endian bytes || label). The first 80 bytes cross a
// block boundary; the hex pins the stream and a fork of it byte for byte.
TEST(Drbg, StreamIsChaCha20KeyedBySha256OfSeedAndLabel) {
  const std::uint64_t seed = 0x0123456789abcdefULL;
  Drbg rng(seed, "member");
  std::uint8_t got[80];
  rng.fill(got, sizeof(got));
  Bytes seed_and_label = from_hex("0123456789abcdef");
  const Bytes label = str_bytes("member");
  seed_and_label.insert(seed_and_label.end(), label.begin(), label.end());
  ChaCha20 stream(Sha256::digest(seed_and_label), Bytes(ChaCha20::kNonceSize, 0));
  Bytes ks(sizeof(got));
  stream.keystream(ks);
  EXPECT_EQ(to_hex(Bytes(got, got + sizeof(got))), to_hex(ks));
  EXPECT_EQ(to_hex(Bytes(got, got + sizeof(got))),
            "96b325b95d6399d106fcbd18bf00ca06a2e543f25e64a2d0c65ef50d501f4113"
            "3f3ae2e92c2f30e79da020671f32b2d58e45967ceb3e2a44806321f6e41dd30f"
            "88029efa43862d31aa0b1ee8b125d391");
  Drbg child = rng.fork("child");
  std::uint8_t forked[16];
  child.fill(forked, sizeof(forked));
  EXPECT_EQ(to_hex(Bytes(forked, forked + sizeof(forked))),
            "ff4bcfb8b82409c085e7eb1d4483b928");
}

TEST(Drbg, ForkIndependentOfSiblingOrder) {
  Drbg parent1(55, "parent");
  Drbg parent2(55, "parent");
  Drbg c1 = parent1.fork("child");
  Drbg c2 = parent2.fork("child");
  std::uint8_t a[16], b[16];
  c1.fill(a, 16);
  c2.fill(b, 16);
  EXPECT_TRUE(std::equal(a, a + 16, b));
}

}  // namespace
}  // namespace sgk
