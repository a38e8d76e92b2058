"""Golden digests: generated sets, certificates and sweep summaries stay byte-identical.

The digests were recorded from the package before its generators began
emitting canonical cover tables, drawing with an inlined splitmix64 and
clearing affine coefficients on integers.  Any change to the seeded
stream, to the node order, to the line order of a certificate or to a
sweep's summary changes a digest here, on every Python the suite runs on
(criterion 9).
"""

import hashlib

import pytest

from gcnlab import (
    DEFAULT_KINDS,
    GeneratorSpec,
    generate,
    generate_with_certificate,
    search_counterexample,
)
from gcnlab.serialization import save_certificate, save_nodeset, save_summary

# SHA-256 of save_summary(search_counterexample(degree, 200, 2024)), by degree
SUMMARY_DIGESTS = {
    2: "7db4235047b77df16aa2c95c31fb01a48f3a7f4e2d567458e6655cb8c87d8948",
    3: "f4ffb3a339c0a16c84f0c8d3e01fc5d59b06da21c02d9b8f3fb0340780b328c6",
    4: "9c8a706cd8a6bf568a53d6f9d9d7ae1a785c10f1980f28c66390435ace810c40",
    5: "bbe438efbae18bd85a6729cb744182df09614b63f52b2b50a8a5f38b63e41cf5",
}
# SHA-256 of the documents of seeds 0-4, concatenated, by kind, for degrees 1-8
NODESET_DIGESTS = {
    "chung_yao": (
        "58903c9c5cfb38ee80e38ce5e3a7251d96c41d059c862b2f949d2d3180cd324b",
        "fa1a2084f79542441b7f824635c73294c1ea731b3aa418dc118841335bb18348",
        "3437c7b1879204e70fe411b49d812b8f0160b2374401dcb2253443fd80e19cc3",
        "e2ae3e878e064e722d31b632c5b4fd40c3d5ad1c339498eb534e8dc3068ce10b",
        "fff6d2437a57d9e863d280e1e23946c07e33c74d79908e48ef1822e4952547e5",
        "baf397e0b265bcf10b6e101ef6f98967932e9353a86cc3baa45a545d740cbd36",
        "7bc13b331e7d9b5623e1bfe7c4c09e978cab48176131f62d8ca4d4ecd3f9a769",
        "5fb8dfbd8f588be4d46b107292ffa3e4b3d07dd4cd9ee60a68eefb8f92812181",
    ),
    "principal": (
        "47337671bd8e0505652f30d8c1d1d0968a89d864fcbc73c82b275b3c9fef8cca",
        "6ddd9e008de1ee95a2a2f3e4837b3385e57bcd91184dc456007d6572a273b349",
        "fac51118abe6053874559d84d486d6ffcdd3126f606ef34eb6c87ee493702851",
        "84588b611809a1ad2d2954361d009a27409f10f9a9e6545b3ebc16b2ee5ee93a",
        "6f2835cf5a4cf1d647312184213f93ff2ee3f54dc0d414347829804489997bb3",
        "229dc1bbe9d2a664f1f686c26c86a37503865ce2466956074fefa1c230b03b6b",
        "d1c5955c32d1fd4420bca96b5bcf557807637c0710115bbaeb90a6dd44108a12",
        "f0d48a6c99482b8f4e9bd55fd8f49e9cea2fe3f29c702ffb1287cda08e7719b1",
    ),
    "projective_image": (
        "c1f4e8e2a46e68a1c10fb721e65d637f9c93986758c67bd9d453377b3cb26534",
        "ed0558b84bbe24d462fdb761d757b897e9eead270ffbc32f9f33d3400c75e902",
        "f50ac371721720e27c69d9f4c28cf5e85c9d78984a56ab378f2bdcd69abeb5f9",
        "dd5562236df4858d73aa71a2001518632c83902747fc8294d745dedd6b837c71",
        "ab2655338940a2a70e6e032fb8b72ebe185c5add266da7a2389436b0812a45ad",
        "c356bef4845143b565c8d9e777bba3d862bc7de929468c38779452c68aba6549",
        "d098d1ea72809151b9d4e6fe426c328fa0fa7c608869ce5d26e8feb1557005a0",
        "3d252811e5bf46affed388e32daf404ff877e7e5f5b9810da55f1e64737c877d",
    ),
}
# SHA-256 of the documents of seeds 0-4, concatenated, by kind, for degrees 1-8
CERTIFICATE_DIGESTS = {
    "chung_yao": (
        "3280ce528cdea40992c66275f411e14f4c1d95cf7590fd91c5f02f1e5d8297fc",
        "0fa101458b673651e7d2634d65e4e21e3639c1ab5d4dc1f2e3f4f90c86a1196e",
        "7b11b631f848d902117157ae61cca88aa106b0acd9627222307a555a41b7b376",
        "291e8fa482e21c60ee7b33a12c14b070ae6ce4d98c88c8c4a35fabd6fef28f57",
        "8488cac580825180a22fdba53da5366095deb599ade6e0917917e49a769344f7",
        "3afc57b44acf17b9578212002191c73433f38261f29985d9b020ec9f4da88b97",
        "f82df46758a5286aa45bc232b5e73d2088a8fb4aedbd5ad449ba5b49264d8c28",
        "968755de833dad4696cf8fd7b53740ecd95854813db2b6a8c37065d883becdd0",
    ),
    "principal": (
        "cb78c16b51749b49a278828238f8ab9ca6925267dc1a3a1526f5144735b611bb",
        "e4028225deab420ef2c9a9d4a5511c8298b71b84338099d8069768f1aa6b08ae",
        "48e948b39b862b44bb1c8bf99c3a89782361c326a490e955f27e9aafee7717e2",
        "3a5ae1aff37203dca6bc90c29fe18f972689f3bc3566da5774ba108a158abb46",
        "3edac3dc0b62daef0f264081a14e737e54e868a439782ca19f7c562e08b00c35",
        "98be077ffec60b4112d8416fc35dad40c2d011b83c9c1a7ac9c15b6d5e7b2e1e",
        "9a3cdca9d880f10b8088e0410af8915b640c6ccc23296206d704350763060c83",
        "260da77f5137f9c4cb0097bc6cc77e11c72f8e25a8b477f3a865db412f5ef168",
    ),
    "projective_image": (
        "763a568e4f1537ed3d609263ee39709a101517d4a0e2c7c92ec251ee89aa351d",
        "61039efbd13f05be43a9c9240e141fe12295e0d5881e070c7f1ed872746f748b",
        "b82e774eeaefec82a18acb96b07495b413d095aa6523220c690b410d8b88e3fb",
        "42992ec94e3ca504552578231ba9240415aae5345804432de4bce85ef35939a0",
        "6a3591ba5dbd6616e44c216351dd272543c2b8408608c2ec28716efc4755f5d7",
        "f84460da0a654ae59513fa19af71919113fe89e8d1d50f0c4a23f173ac0f7ec8",
        "1a2e14fb2d003cc9184575737f9968480e9f97b57e081c9bf3c1271b3bc8beaa",
        "5d4f993329dbfa8beb9d986d987b2b4e561a7267687ab0224b60bb13d64eaf64",
    ),
}


def _digest(documents):
    h = hashlib.sha256()
    for document in documents:
        h.update(document.encode())
    return h.hexdigest()


@pytest.mark.parametrize("degree", sorted(SUMMARY_DIGESTS))
def test_search_summary(degree):
    summary = search_counterexample(degree, 200, 2024)
    assert _digest([save_summary(summary)]) == SUMMARY_DIGESTS[degree]


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_generated_nodesets(kind):
    got = tuple(
        _digest(save_nodeset(generate(GeneratorSpec(kind, degree, seed=seed))) for seed in range(5))
        for degree in range(1, 9)
    )
    assert got == NODESET_DIGESTS[kind]


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_generated_certificates(kind):
    got = tuple(
        _digest(
            save_certificate(generate_with_certificate(GeneratorSpec(kind, degree, seed=seed))[1])
            for seed in range(5)
        )
        for degree in range(1, 9)
    )
    assert got == CERTIFICATE_DIGESTS[kind]
