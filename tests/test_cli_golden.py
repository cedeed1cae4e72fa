"""Byte-identical CLI output across refactors of the group core.

SHA-256 digests of stdout, with the exit code, for `subgroups`, `marks`,
`burnside` and `conditions` (coefficients Z, sphere and Fp:3), in text
and JSON, over nine groups.  The digests were generated from commit
2f30137, the tuple-permutation core, before subgroups became bitmasks
over numbered elements.  The `marks` digests of S4xS4 (274 classes, the
largest table here) were generated from commit 2609384, before the
containment counts were read off the subconjugacy masks and the lattice
dropped its element bitmasks.

CLASSIFY_GOLDEN holds the same digests for `classify`, in text and JSON,
over inputs that reach every verdict: AllStandard (C4, D4 with Z, and
C2xC2xC2xC2xC2), NonStandardWitness (C6 with sphere, S3 with Z),
ConditionsFailNoWitness (C12 with Z) and UnitDecomposes (A5 with
sphere).  They were generated from commit 76d1dfc, before families
became masks over class positions.

WITNESS_GOLDEN holds them for `witness`, in text and JSON, on C6, C10,
C15, S3, D5, C30 and C12 with Z and on C6 with sphere (found and absent
witnesses both), and PULLBACK_GOLDEN for `pullback-demo` with seeds 0-9.
They were generated from commit 73f8eed, before each verb's text was
rendered from its JSON payload.

A change that alters any of these bytes must say why and regenerate them.
"""

import hashlib

import pytest

from equisep import cli

GOLDEN = {
    ('subgroups', 'S5', 'text', None): (0, "7e23840d5c6948c6db8ca581e538e96f21ba35660283ca24b01cc0ab382f3dfa"),
    ('marks', 'S5', 'text', None): (0, "0f6d95cdbfd338a4c75a065fb3d91186abb153e9476a027861187ff09974c0a2"),
    ('burnside', 'S5', 'text', None): (0, "8587ebf21038166304b231f8c8d7275568ba924d632236fb2a6d6b98c064af57"),
    ('conditions', 'S5', 'text', 'Z'): (0, "0b0e403a34c6c74281630b2ade43d1ca69b1b9dccfd5797bcebb2ab7892b85c9"),
    ('conditions', 'S5', 'text', 'sphere'): (0, "a7d5261ee5d33a1de7fc10644eac7d43c976fc162b17e4bb051d871d37b5fd15"),
    ('conditions', 'S5', 'text', 'Fp:3'): (0, "fe04fcddb67b030d834af6c72c1adb5c11dfdd941686e41e9342a431c9998841"),
    ('subgroups', 'S5', 'json', None): (0, "a8c9b08e331ad94c31f5670395be4b60d1a619aabed824dd712d07346b9501ad"),
    ('marks', 'S5', 'json', None): (0, "8a3db40638d205997cdd4c5de514100cc90c0f6a8ebae0471d254e890a821f54"),
    ('burnside', 'S5', 'json', None): (0, "48db2a0c862fa8d4f0d9a5b638d755a6f37f27a9ac5ca02085ac0b7601a07271"),
    ('conditions', 'S5', 'json', 'Z'): (0, "97c0f53264c6de56e80e94af17ac2e638e4a326963e480ae2990a8a54bff283e"),
    ('conditions', 'S5', 'json', 'sphere'): (0, "2e136aca6f3ddb1c4b62cd41cf8daa9837cd7d46a1cf28ea845c656c58c7726c"),
    ('conditions', 'S5', 'json', 'Fp:3'): (0, "e33d7f4b734076c81a29e9571745801106b301e762a8e22a646418c374292300"),
    ('subgroups', 'A5xC2', 'text', None): (0, "570d39d6e236ab01000a97496192df7c8bddab322ab826999bc47ea441ac1e98"),
    ('marks', 'A5xC2', 'text', None): (0, "d3186d5262ac365c36e95e76999a628865579e947d02b750230462ec38701e57"),
    ('burnside', 'A5xC2', 'text', None): (0, "226083638118d50ff89eb6f5ebb404301593b307d1cd8ad5d72ae64148335950"),
    ('conditions', 'A5xC2', 'text', 'Z'): (0, "46af7900a9f3a7537b63cdb2c6d352815aed825004a30629c480691fc2487e2b"),
    ('conditions', 'A5xC2', 'text', 'sphere'): (0, "134c977d0668bffb73d66ffdc2d0a22078cf598bb05141f45983b2ad0793c602"),
    ('conditions', 'A5xC2', 'text', 'Fp:3'): (0, "0dd18e32a5752dea627d70a312647cd46766b2a9f9bd653d7fa4f3c855e17f69"),
    ('subgroups', 'A5xC2', 'json', None): (0, "7f4deb6458f3a275a25c434c43a0b51ceeadadb14552ff6b7c4dab0ecd9868e9"),
    ('marks', 'A5xC2', 'json', None): (0, "242ba360eb025ffa217b4b0be6ae76cb09fb71f59d5970390440a702fb6fe716"),
    ('burnside', 'A5xC2', 'json', None): (0, "eb09d16b45a81310f047ac66d279c571ab4cc0ad295219cd5a2767fad0da7f4b"),
    ('conditions', 'A5xC2', 'json', 'Z'): (0, "f03ba10811eefbaafdf62abdaee427a19439615c912346767df053ad7cb375b8"),
    ('conditions', 'A5xC2', 'json', 'sphere'): (0, "0d1526b38059bd9e3aa9ac1bee27974cd1d9258351f979248e215a7d981050ff"),
    ('conditions', 'A5xC2', 'json', 'Fp:3'): (0, "b1755d0a56f3b2a31eedf98655b1b55241326cff0893937e63a5ed3afaab4be6"),
    ('subgroups', 'D4xS3', 'text', None): (0, "f6c6b8f8c00c7b0e3765fbb38f6f90700a46be49abb09f7e276bae84376224ea"),
    ('marks', 'D4xS3', 'text', None): (0, "27622e2cd593910087e7f1740df257d42d80c96b43b74564cd9d75baed0d1009"),
    ('burnside', 'D4xS3', 'text', None): (0, "c8a592fc9a6299e6394a444a4fb3fce711dcb4b4b0cab954ef1a50f76ef38151"),
    ('conditions', 'D4xS3', 'text', 'Z'): (0, "ee7fbbded63fd4a90d6fc771b6871fbd991b7bd965d8ca7fb44bed46fb4a0fcd"),
    ('conditions', 'D4xS3', 'text', 'sphere'): (0, "37eb057d16709e651cf2e8e7dc4a505fb89b8b3ff2e5e3e5538074967bdef2f8"),
    ('conditions', 'D4xS3', 'text', 'Fp:3'): (0, "1af9d6039a9db2425f249f7131879444a0724da7bceb8e67f20baadb25defcf2"),
    ('subgroups', 'D4xS3', 'json', None): (0, "23405c2e2255f66cceacea11b554fcb7f48379b2be40b2abb87c688138e4c5a7"),
    ('marks', 'D4xS3', 'json', None): (0, "dc35811d52a1ccea1d99693f5d8b1d5bcc9348d23a326c8520b1312807ce5101"),
    ('burnside', 'D4xS3', 'json', None): (0, "1aeec22592d048f919bc5d31109400d26ed27e1fb6dad84f018ab0f7a5f53678"),
    ('conditions', 'D4xS3', 'json', 'Z'): (0, "6373c6265eaa5c6973586aef4952fff90ab804b42af3f67d25f0367b94258fef"),
    ('conditions', 'D4xS3', 'json', 'sphere'): (0, "6840343b24ec59d2af601abe353773a9e526ba03d205cc69b8c7b4c8b7a9e558"),
    ('conditions', 'D4xS3', 'json', 'Fp:3'): (0, "261eb6f1d1340f7efe21ebda0345db5ac864edf741cc4d72a9a2af2c6b860289"),
    ('subgroups', 'Q8xS3', 'text', None): (0, "e17fca217dcddc900525b131f8aff2f41bb57dfbb98de5faa803e32e95b58dce"),
    ('marks', 'Q8xS3', 'text', None): (0, "3ab02f06d22763e164d9f03aca3ce5cd32bfcba27bbae4a94ff64474a4f72b3f"),
    ('burnside', 'Q8xS3', 'text', None): (0, "d5cefda827801e82f4687ee8a6ad2879f72369c5d2be7f17b32ef2effc7e35cc"),
    ('conditions', 'Q8xS3', 'text', 'Z'): (0, "15e00b49d533ac12c51fd58b3365542a1e66d1dd0487506b9828bf95c0b8d300"),
    ('conditions', 'Q8xS3', 'text', 'sphere'): (0, "f825bc9158d3130176e98b68633caab1f9cb257443d17f7743033a007e79e2c3"),
    ('conditions', 'Q8xS3', 'text', 'Fp:3'): (0, "229603fecd3ab248aabbf3bcb4775e4999b9c994d31cf8c92eed20e53015e2ff"),
    ('subgroups', 'Q8xS3', 'json', None): (0, "ff2e90443b6b7cd566a17ba504427366ad5a30ba55579aeae26a744c5a96f8b2"),
    ('marks', 'Q8xS3', 'json', None): (0, "6d2cc518270bd862ae92d080b76a77e878fa1e4c92cb6e59c7c29d912de9c080"),
    ('burnside', 'Q8xS3', 'json', None): (0, "c45c345ba09faa97b036fad58666be867729c2e6ae3146bc26020261004e6d73"),
    ('conditions', 'Q8xS3', 'json', 'Z'): (0, "f010faa5de28e7d39402d9adfae11d4ca2268104fe4baaff67547287348aa905"),
    ('conditions', 'Q8xS3', 'json', 'sphere'): (0, "23bbf20936da431bdef1ea20874b1faee6ea277bb1f52912e91fdb67f23a3db2"),
    ('conditions', 'Q8xS3', 'json', 'Fp:3'): (0, "184f7b10ac7f54d72a9915123cd5943cf867cb0393147a2d3b9928f7bd83d07a"),
    ('subgroups', 'C2xC2xC2xC2', 'text', None): (0, "1c65da29ce9bc683e69ef1a7673c89fe85b40b999c44c10a6439e866560d3b34"),
    ('marks', 'C2xC2xC2xC2', 'text', None): (0, "529d5251cb5c7be56e2a7607b8caf9653e51d2373283dfed24f4ffcec692c40b"),
    ('burnside', 'C2xC2xC2xC2', 'text', None): (0, "67ecbc19198dadd762b6c6ae8cc24513420f78393b88465e27892e83794bdc06"),
    ('conditions', 'C2xC2xC2xC2', 'text', 'Z'): (0, "b69755f62e2bdcc5cad9fefe62a6ed63a77a5423c611f4662ab02c8a08c141a6"),
    ('conditions', 'C2xC2xC2xC2', 'text', 'sphere'): (0, "87d42eb31a48946b291734f69d9f83f2b46eae7591a9f2740f965230b57e7aaf"),
    ('conditions', 'C2xC2xC2xC2', 'text', 'Fp:3'): (0, "082080e7cfb911b4d47de5dd8005208d1b1aa618377bd244c47030ab0d7396fb"),
    ('subgroups', 'C2xC2xC2xC2', 'json', None): (0, "af6bc5c907d750f0298b14b5613661e1296ca1da68d2ae3c4931fd9c59949868"),
    ('marks', 'C2xC2xC2xC2', 'json', None): (0, "3adbc3308bf9157269e5b1189358bed84069fca4edb2349cdda5ebde9d48a46a"),
    ('burnside', 'C2xC2xC2xC2', 'json', None): (0, "fe244c200b03c053944b50167e781029c32bd16a8c89a3b8e4e87aea7416fad6"),
    ('conditions', 'C2xC2xC2xC2', 'json', 'Z'): (0, "243eb227af2ff0de3c30aa4bd81f1a8377df521b041f0faeb9efe4d15ae66899"),
    ('conditions', 'C2xC2xC2xC2', 'json', 'sphere'): (0, "ae2b2c78b299e62a33f6bc34e3a1aab1d13aff2b440d87e410a9ed41f0ecab96"),
    ('conditions', 'C2xC2xC2xC2', 'json', 'Fp:3'): (0, "7eb6a18ac14faac01d5782b469b634233f3bea51ad9d4dfe87dcc0610897cf1d"),
    ('subgroups', 'S4xC3', 'text', None): (0, "097186805c07e50aa8df8383d3b1f32d33c450fdce553f712c360d05eccd2b6a"),
    ('marks', 'S4xC3', 'text', None): (0, "06d6ed25da168f93795f574b813a423fffee12ea37ea4291ce20fd5fbdccbfe8"),
    ('burnside', 'S4xC3', 'text', None): (0, "703cbd34ce34a9a8392b4133567e72f981fd99cb52ad18b60a8d59c4d78ed8eb"),
    ('conditions', 'S4xC3', 'text', 'Z'): (0, "ad76a9cb295f0b09a4b97a3f2fea22820a423fc6fcddf8942ee48552637844e3"),
    ('conditions', 'S4xC3', 'text', 'sphere'): (0, "42f675ba245ad5bb26b1bc8606c7f3c860173affe9807188a745fab8da428d45"),
    ('conditions', 'S4xC3', 'text', 'Fp:3'): (0, "c75c268c7fef0c2c3045b3eec05bd8d2eb0fb67120c208324e9943fac43f2c0a"),
    ('subgroups', 'S4xC3', 'json', None): (0, "25e8a63f0d73dcf330614b019e6bf9b50ff66b66681d7334e472642e8263c006"),
    ('marks', 'S4xC3', 'json', None): (0, "013821a373b62f32b52005e8f10bb9604b65c0087b19a93da0c905f02d373ce6"),
    ('burnside', 'S4xC3', 'json', None): (0, "c1c3d1cb838e71d4fc15f1997539e0723cc732ad53d28b344c574a58e49d9733"),
    ('conditions', 'S4xC3', 'json', 'Z'): (0, "2e3b8b300871c1e8a171d722af8e82f92d4c28c34e7e466fbffc91add9aafd75"),
    ('conditions', 'S4xC3', 'json', 'sphere'): (0, "0b44a5740f1baa560f4f66c1e35bb8bbf478227f68e16bad13d345c1ac35ecce"),
    ('conditions', 'S4xC3', 'json', 'Fp:3'): (0, "0aac5f5df99b53f7a7477b4f3decc1455326f2a14f7691a5da1014cd352c7da1"),
    ('subgroups', 'C30', 'text', None): (0, "7dee436761a1ef7b67a37bcabe11b8d6f046b7f5b01902955f0c65a78be94052"),
    ('marks', 'C30', 'text', None): (0, "ac1ca1d2fb13abeff76cd61acf8c2f1d40a980bacf27bd573feb5b58eafcba6e"),
    ('burnside', 'C30', 'text', None): (0, "b75f3323f9c1a25139c7372b4ca67e6b9bdd0c136f6bd20b647e25aebf966497"),
    ('conditions', 'C30', 'text', 'Z'): (0, "742b7d2a3aeaee579e2ab6b9cd843db62031b636c16f4c8eeca03e439f43a5f3"),
    ('conditions', 'C30', 'text', 'sphere'): (0, "7369a0c77d32487504e25eab26a8faa3feb925af30ca9f5a939f8db65137d1bc"),
    ('conditions', 'C30', 'text', 'Fp:3'): (0, "60cfb82d384533590c6204c2301ebfe91a6bd9c39b03aac061aa9ab037963ab9"),
    ('subgroups', 'C30', 'json', None): (0, "2b8cda56073db31bd7634b11f99bb420f4871b4c4b4860fc8a0edbedc74fff66"),
    ('marks', 'C30', 'json', None): (0, "f66541f85f5bc205520eb85785f327215a5e21106190ba854433bfc20201362d"),
    ('burnside', 'C30', 'json', None): (0, "bed66de3818ce3d581a4b1bb9a657cff56e2d5b1d1a6f03f6a8232b52a8040b4"),
    ('conditions', 'C30', 'json', 'Z'): (0, "50c935ba69ecbd580a6657d6ff058062003e0fac7d4c909e34c97db12741b792"),
    ('conditions', 'C30', 'json', 'sphere'): (0, "acdf529935e0b796b17dcd63d5948316e1a1306462fc57dd6e0081b46a8b4d0b"),
    ('conditions', 'C30', 'json', 'Fp:3'): (0, "b45bda7497f2159df6e2dd830ffe36d1e4866618c401d61f9c63ba26d351e16b"),
    ('subgroups', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', None): (0, "a0dbd88a8fa83e3308d8029ec2e29b92a059b83bbbd7a8f2adbfed22d9db03c5"),
    ('marks', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', None): (0, "582bd72313b67d32bd409f4e14e6e5f0f25f4675c55b1cd5c5fc96ea88b2ecd8"),
    ('burnside', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', None): (0, "b13dcd2256be49d24795572d2767e7339133dd25f209fbc4d54d6583385b9bd3"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', 'Z'): (0, "69c1a90d7a7c7fd9013ed3e19071f9e1607bab59c98542c78e300be9eac9dcf1"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', 'sphere'): (0, "a395342c738fdf2f88f5961407a5b65624ac5c0154bd53895f67969833aa8362"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'text', 'Fp:3'): (0, "8808157e08b53365e1bed71d0ee8339583ccbdcf5d4c4f586c870212073b1597"),
    ('subgroups', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', None): (0, "0eb28aaa0f946b69c9490a31cf526782eff1b51c0279c792d88cd03dd98ab1b6"),
    ('marks', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', None): (0, "45eca4d0d473797d4432a80fdaf8faa617e9d5d21e402f5a3f70cc05aacc1521"),
    ('burnside', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', None): (0, "2beb1dd56f7f4cf5477d5ea674aa40ffa7a73710a2cb4cee203fc7a4dbd1af64"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', 'Z'): (0, "5bea79aaad0a79f9cee0e54d2398008049882241af7e30707bdd2580ea8056b2"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', 'sphere'): (0, "59bdb5926c4e0c1cbf2960f54684cb7366c73532fd778b85686abdb9ec950fdf"),
    ('conditions', 'perm:5:(1 2 3)(4 5);(1 2)', 'json', 'Fp:3'): (0, "acff5cf6f4cfc5f705be44731276bcbfb4857762a1d812345ff273ae241ed8a7"),
    ('subgroups', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', None): (0, "b18fbc40820459616ea5eea7bd0a3726b3508e4e6b7db4b47af9a05fe7820811"),
    ('marks', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', None): (0, "77a0ba587d8eed099c8abff30b46c24450364af41ceff0e00a3eab05d43ac070"),
    ('burnside', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', None): (0, "79190e43d3b608bc098322d731b98424b82ed4979318b1d625ed913bba298886"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', 'Z'): (0, "55bbb43176a820882a201c183678491511cf3192bf0a65784f1c98c8af8c98b4"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', 'sphere'): (0, "988de1f027df094d1e29474504d61fac6b13fcce0662f1c2db963af1b9378bb9"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'text', 'Fp:3'): (0, "0bb1c86e37836b57329af864703415c7a94a8f0e725555a96035e1f55d5881fc"),
    ('subgroups', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', None): (0, "2bce85d7764f26a3fc6bd63253e30dbacc09b9ce0ccd7d639e332ec2b8844808"),
    ('marks', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', None): (0, "df26b447eea4fdf25cc84f612b36322826ac4a2d8852f731af12ddecf04afe09"),
    ('burnside', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', None): (0, "d1e1ae0380db13d2a02cc07fc4fac245107f885f02abb5c5a363e238a8f4eb5f"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', 'Z'): (0, "f798b17650f66a6346de251b16d8c017b615201409c039fdad1596f15b7c8dcf"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', 'sphere'): (0, "d2ccc2cf2c372f9ff16a1d06fe505f1425969fb470fa3feb558c978b31ccfe1b"),
    ('conditions', 'perm:7:(1 2 3 4 5 6 7);(2 4 3 7 5 6)', 'json', 'Fp:3'): (0, "045eeac2d61cb224ac701b24aacf8c67e535f2d4e5f254cbabdfc0a7d276393c"),
    ('marks', 'S4xS4', 'text', None): (0, "09aa345d060b3d972ae3721be950e29815684a8fd2fcb5166283d4aca85bc7cc"),
    ('marks', 'S4xS4', 'json', None): (0, "e91dc26aae14304e5e8f7bf64673ec4e7cb31da3ff7161fca9ba32fad23bbf30"),
}

# (group, coefficients, --max-size, format) -> (exit code, digest)
CLASSIFY_GOLDEN = {
    ('C4', 'sphere', 4, 'text'): (0, "25a3464b00b00148f3c447597d60a491215efcb670859a032d2424d5dca9c7dd"),
    ('C4', 'sphere', 4, 'json'): (0, "2c786ea649e73d3b0265200d51a646e232c6904d68ef0184430c6d0cb90c3873"),
    ('D4', 'Z', 6, 'text'): (0, "65679ecf4d39612b9a2efb069d9f43b7408438f2066ce773aaf54924b47f3897"),
    ('D4', 'Z', 6, 'json'): (0, "851842cc13481d91590acb5f2579cb8c544b00a5f6df3552ad988e544a621a9d"),
    ('C2xC2xC2xC2xC2', 'sphere', 2, 'text'): (0, "1eb34e5c11b0010d3365040371ae0987d5089d7eb31cefdbc149d5d68578ca1f"),
    ('C2xC2xC2xC2xC2', 'sphere', 2, 'json'): (0, "9b9cb794ba607571998c80c4737b219440563a62f7cddd17c9f0643596ab26ee"),
    ('C6', 'sphere', 6, 'text'): (0, "fdd2fb17fd9a594f0b40adce7b00ebf1f9a3ffd7edfb02013e3eb9145d11e365"),
    ('C6', 'sphere', 6, 'json'): (0, "72c60f5c6b295162eb9001f2b6d7a11da0e7174e5d2e1e94d4ea30e436118768"),
    ('S3', 'Z', 6, 'text'): (0, "942a0130269d5dc06acbde799398401f8aeeb4298e54d4dfb2c704723639a1d2"),
    ('S3', 'Z', 6, 'json'): (0, "78981fc73f41b799a8dcb088fc1d22cc2def4a26d6ed1759c7918cedf14deb44"),
    ('C12', 'Z', 6, 'text'): (0, "e9d593fe320f26c5094534e2b2fb56705a2765b5cca63e2445132d9d51a0ad32"),
    ('C12', 'Z', 6, 'json'): (0, "c8c860a054b90c36193ef6a739d3de185d3cad82b1cff6179725d3a19b96a66d"),
    ('A5', 'sphere', 6, 'text'): (0, "2139d5e3ecbca1826a1b1a8a9d94650d7386e801272faca3aa339070f14b572c"),
    ('A5', 'sphere', 6, 'json'): (0, "09ede4c2f94060e2d8f49ce1f957e327966950998c2a88858b27b69fbbc10ea7"),
}

# (group, coefficients, format) -> (exit code, digest)
WITNESS_GOLDEN = {
    ('C6', 'Z', 'text'): (0, "31f26bdf52b96b130042b9144705f18df9385f270eb3bdf9d617a402bcf96c00"),
    ('C6', 'Z', 'json'): (0, "60aad5768e4dc3ba970ce9df09623e24c27857f10f0f14b0359a670694f6d559"),
    ('C10', 'Z', 'text'): (0, "cec2d53011c72ecb2b568131a4a95bbe5c3d2c2270c860060b8ef8d4404ba48f"),
    ('C10', 'Z', 'json'): (0, "8ca9995204f00c0990623ea15a6c1938f1dc927ee12fdf1e04873d15899ac66f"),
    ('C15', 'Z', 'text'): (0, "1922e4b78acef187b6e91710292a58400436face62ef438c2fa8fdb5382a41a6"),
    ('C15', 'Z', 'json'): (0, "45019da9618f67922f5d1a32005c57bb1a6875b3e334af615f6de82fdee3c19b"),
    ('S3', 'Z', 'text'): (0, "31f26bdf52b96b130042b9144705f18df9385f270eb3bdf9d617a402bcf96c00"),
    ('S3', 'Z', 'json'): (0, "60aad5768e4dc3ba970ce9df09623e24c27857f10f0f14b0359a670694f6d559"),
    ('D5', 'Z', 'text'): (0, "cec2d53011c72ecb2b568131a4a95bbe5c3d2c2270c860060b8ef8d4404ba48f"),
    ('D5', 'Z', 'json'): (0, "8ca9995204f00c0990623ea15a6c1938f1dc927ee12fdf1e04873d15899ac66f"),
    ('C30', 'Z', 'text'): (0, "6912cb282848638b7692aefb602bc804a0eaa8a77bbd8cec67da214c8ab474c3"),
    ('C30', 'Z', 'json'): (0, "8f3d963dc6091feb72cc9d59a0267fe42be57a656c239e110bb9157f26af30e7"),
    ('C12', 'Z', 'text'): (0, "97d295db48d33669f38c6b86a3766819dad3359e8128023156bea19060121971"),
    ('C12', 'Z', 'json'): (0, "e857ff2ad4617b3da83178d1d523a055623afd0b26ffbf86a1adf0ae37cf6bbc"),
    ('C6', 'sphere', 'text'): (0, "31f26bdf52b96b130042b9144705f18df9385f270eb3bdf9d617a402bcf96c00"),
    ('C6', 'sphere', 'json'): (0, "60aad5768e4dc3ba970ce9df09623e24c27857f10f0f14b0359a670694f6d559"),
}

# (seed, format) -> (exit code, digest)
PULLBACK_GOLDEN = {
    (0, 'text'): (0, "1b75e968879355dca57b728857ebee008c6a99df905e91ce95c6bd90000dfb19"),
    (0, 'json'): (0, "5ba68228faed5f67237f9fdea2c624245ec3c5ddee6694ebe169ea1ac040def3"),
    (1, 'text'): (0, "779908446d1fa7d11eb0b51ffd8b1511c7317b6ed84949415bc76ecfec3af59e"),
    (1, 'json'): (0, "0459fc70c20736d45aa64491ea60c474dcb176743c8e75ed460bbfa569d95c60"),
    (2, 'text'): (0, "7a684dc9736c8e1535beea6449f665109f5693d30cadada59957753a5b1825d6"),
    (2, 'json'): (0, "7ff273e7f690d8118aecff9e1e71ac4df02a34a14e9096c682e9f05d8000b34e"),
    (3, 'text'): (0, "59736035ba80967e615b792731639a09f4969d51f144f3ee14ff88d481bcd273"),
    (3, 'json'): (0, "dcc64b26bbd815b3b5099228559d255c49d7518b5343e73ee8a64091cb5d823e"),
    (4, 'text'): (0, "58eef81dc4a34a384746b96aeb3ba1d12c21aba49396b1286619b1cffbc9dc29"),
    (4, 'json'): (0, "263fd4e866531f9325728f9827c1bcf5c794f9f4cb1d11388bef49e395dcd368"),
    (5, 'text'): (0, "1eeb1a167016446c751d7eee1c675c9b51227158d1bc97b09a3fb69a25b9a65a"),
    (5, 'json'): (0, "80d1224f715b98adfffc878e565d280c34564ae2e3c98c10b0b5ae5e3e618f2a"),
    (6, 'text'): (0, "c3b6a08a5c3343e32e038167375c503337c6e9bf5c5599d7731231f02724ef1d"),
    (6, 'json'): (0, "902c076158b848d00a71c9c43612f44f2759f6ebca50ea3013bc283fa821640d"),
    (7, 'text'): (0, "6c7ce77d5de82914ebde299c6d6c98a5716f5d7524b3748fea146362d4dd41da"),
    (7, 'json'): (0, "be6e3140a8d75f8736bf79858875a1b15018481ad36af46e5de1bd300272e70d"),
    (8, 'text'): (0, "ca59b472c3a5d6b9d5e151338eb5f1531e9f4ed19aea9bd5c027a6b4fd15e2ee"),
    (8, 'json'): (0, "27abb30665bb5e5d5ce209d171733c0c03eb28e02068d5b7f910f01717c7e9cb"),
    (9, 'text'): (0, "7c3bb55a42d84eae16a71f605d69e27534ec1f05040723fac63fa3df578fba6e"),
    (9, 'json'): (0, "bc30916ce42be5e8d2e389fbfab69422582be0874b51aa4d0e36a062da34417e"),
}


@pytest.fixture(autouse=True)
def _no_env_bound(monkeypatch):
    monkeypatch.delenv("EQUISEP_MAX_ORDER", raising=False)


@pytest.mark.parametrize("verb,group,fmt,coeff", sorted(GOLDEN, key=str))
def test_cli_output_digest(capsys, verb, group, fmt, coeff):
    argv = [verb, "--group", group, "--format", fmt]
    if coeff is not None:
        argv += ["--coeff", coeff]
    code = cli.main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[verb, group, fmt, coeff]


@pytest.mark.parametrize("group,coeff,max_size,fmt", sorted(CLASSIFY_GOLDEN, key=str))
def test_classify_output_digest(capsys, group, coeff, max_size, fmt):
    argv = ["classify", "--group", group, "--coeff", coeff,
            "--max-size", str(max_size), "--format", fmt]
    code = cli.main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == CLASSIFY_GOLDEN[group, coeff, max_size, fmt]


@pytest.mark.parametrize("group,coeff,fmt", sorted(WITNESS_GOLDEN, key=str))
def test_witness_output_digest(capsys, group, coeff, fmt):
    code = cli.main(["witness", "--group", group, "--coeff", coeff,
                     "--format", fmt])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == WITNESS_GOLDEN[group, coeff, fmt]


@pytest.mark.parametrize("seed,fmt", sorted(PULLBACK_GOLDEN, key=str))
def test_pullback_demo_output_digest(capsys, seed, fmt):
    code = cli.main(["pullback-demo", "--seed", str(seed), "--format", fmt])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PULLBACK_GOLDEN[seed, fmt]
