"""Polar quadrature, adaptive oracle, and the symmetric triangle rule of the tests."""

import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from helmpanel import kronrod, numquad
from helmpanel.engine import N_FALLBACK, SAMPLE_PROJECTIONS, EvalRequest, evaluate, sample_field_point, sample_triangle
from helmpanel.geometry import Z_MAX, ref_params, subdivide
from helmpanel.numquad import (
    adaptive_oracle,
    gauss_rule,
    polar_integrate,
    polar_nodes,
    quad_adaptive,
)

from helpers import KERNEL_ROUNDINGS, cumulative, flat_kernel_sums, flat_nodes, kernel_closed_forms, shoelace_area, tri_rule

RNG = np.random.default_rng(10501)

VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]])

# Full-component oracle values (I0, Ix, Iy, dI0/dn, dIx/dn, dIy/dn,
# d2I0/dn2) on the sample triangle, k = 1, tol 1e-13, keyed by
# (sample projection, z).  Frozen from the oracle that ran one adaptive
# inner quadrature per angle node.
FROZEN_ORACLE = {
    (1, 0.0001): (
        complex(0.8890012945611685, 0.42115340626945585),
        complex(0.2886001571817276, 0.19383451690573322),
        complex(0.18660450031204753, 0.1246984970825592),
        complex(1.1524886308629632, 1.4418655807367392e-05),
        complex(0.0008179739535900165, 6.674029812478638e-06),
        complex(0.0005313312454411936, 4.2922924965819145e-06),
        complex(0.833721133234917, -0.14418655778201406),
    ),
    (1, 0.1): (
        complex(0.7781915664482526, 0.42043283868685466),
        complex(0.276972248936406, 0.1935009848604945),
        complex(0.17906014191399097, 0.12448399142026298),
        complex(1.0645625934489187, 0.014404078065921646),
        complex(0.18705606249139556, 0.006667266149752729),
        complex(0.12131844785969854, 0.004287943097230928),
        complex(0.9155826280081271, -0.14374933031960654),
    ),
    (1, 10.0): (
        complex(-0.03719255383466971, -0.02516904566992017),
        complex(-0.017302554259458598, -0.011810431136572395),
        complex(-0.011124944001642677, -0.007590220560511538),
        complex(-0.028823785851755997, 0.03461286001417557),
        complex(-0.01350440842865349, 0.016086342742628594),
        complex(-0.008679608502360058, 0.010343508909715263),
        complex(0.031316650998447756, 0.03195127950917043),
    ),
    (2, 0.0001): (
        complex(2.26215904071458, 0.4435041021559271),
        complex(-0.0036411528644378355, -7.790502933017682e-05),
        complex(-0.0016856719052750699, -3.434687647008855e-05),
        complex(6.2815295346771345, 1.4869821136027977e-05),
        complex(-6.964414972849848e-06, -1.566859824330421e-09),
        complex(-3.3324766570437927e-06, -6.906544243008575e-10),
        complex(16.558037548373363, -0.14869821106214115),
    ),
    (2, 0.1): (
        complex(1.7163475166664521, 0.4427609844258157),
        complex(-0.0033220762233914097, -7.782671447876047e-05),
        complex(-0.0015333796588499343, -3.431235615115706e-05),
        complex(4.672575523721344, 0.014854919569767911),
        complex(-0.005848259558117103, -1.5657374688522914e-06),
        complex(-0.0027842297949786238, -6.901597598607447e-07),
        complex(14.98581511725494, -0.14825127066015376),
    ),
    (2, 10.0): (
        complex(-0.03763454121325828, -0.024634403093996407),
        complex(1.511584220769465e-06, -1.85194406577497e-06),
        complex(6.656980281207186e-07, -8.161908923208852e-07),
        complex(-0.028383813099488685, 0.03515689213365129),
        complex(-1.5286396619559883e-06, -1.8666810430532227e-06),
        complex(-6.738208056550777e-07, -8.22237420636902e-07),
        complex(0.03193250179500857, 0.03163508160468084),
    ),
    (3, 0.0001): (
        complex(1.5564206245169154, 0.43682428278057883),
        complex(-0.024063302598597597, -0.014212674319713375),
        complex(0.29408219139531006, 0.12901803030382852),
        complex(3.1410479064158716, 1.4735353029349093e-05),
        complex(-1.2154533994174189e-05, -4.841672914705639e-07),
        complex(0.0016739293880420297, 4.37970451623563e-06),
        complex(5.4476285212214774, -0.14735352999728044),
    ),
    (3, 0.1): (
        complex(1.2699712885315941, 0.436087886039638),
        complex(-0.023472906458721937, -0.01418847819281598),
        complex(0.27435433239463913, 0.1287991556157361),
        complex(2.595579270793271, 0.014720547831834917),
        complex(-0.01147356344272829, -0.0004836788107263892),
        complex(0.2968162909317281, 0.004375292290029377),
        complex(5.337483885916222, -0.14690948012107052),
    ),
    (3, 10.0): (
        complex(-0.03750431811986066, -0.02479343803236553),
        complex(0.001243341865071656, 0.0008347425969920772),
        complex(-0.011211474656473638, -0.007486449526528146),
        complex(-0.028514985574380015, 0.03499621022646133),
        complex(0.0009573385570187097, -0.0011581504943517654),
        complex(-0.00859438942937137, 0.010449783667437271),
        complex(0.03175025352591228, 0.03172966756109456),
    ),
    (4, 0.0001): (
        complex(0.39996605768090876, 0.3980473941639686),
        complex(-0.27816750112827604, -0.3073935221052238),
        complex(-0.06226145780305862, -0.059385736825372515),
        complex(0.00013612827535480765, 1.3947992115207357e-05),
        complex(-8.882301945985671e-05, -1.0835706980315555e-05),
        complex(-2.3215686428586878e-05, -2.0853897503789514e-06),
        complex(-1.3612826657952877, -0.1394799208672057),
    ),
    (4, 0.1): (
        complex(0.39326687381269243, 0.397350351253892),
        complex(-0.273787138512389, -0.3068520145323805),
        complex(-0.061121844631770464, -0.05928152071646053),
        complex(0.13188736546978252, 0.013933753884470526),
        complex(-0.08641607617157196, -0.010824618930965282),
        complex(-0.022379460512709358, -0.002083259031505465),
        complex(-1.23688462912289, -0.13905287682779371),
    ),
    (4, 10.0): (
        complex(-0.036713863891707874, -0.02573027726818028),
        complex(0.028665854480753816, 0.020263273679127475),
        complex(0.005499064596171678, 0.0038678669780507673),
        complex(-0.02928215797654458, 0.0340282915560723),
        complex(0.023025495988960386, -0.026541913550735936),
        complex(0.004398908613960398, -0.005094735763877354),
        complex(0.030659073554446144, 0.03227702602821976),
    ),
}


# polar_integrate values (I0, Ix, Iy, dI0/dn, dIx/dn, dIy/dn, d2I0/dn2) on
# the sample triangle, k = 1, hypersingular on, keyed by (sample
# projection, z, n).  Frozen from the per-subtriangle node loop that the
# one-pass construction replaced.  At z = 0.3 above the centroid the
# subtriangles take theta and u nodes within one call.  The centroid lies
# exactly 0.3 from the edge y = 0: the (2, 0.3) entries are frozen from the
# per-edge frame, whose s = |d_e| = 0.3 takes u nodes there, where the
# earlier s = r1 cos(phi) = 0.30000000000000004 took theta nodes (both
# within 1.1e-5 of the oracle at n = 8 and 9.4e-11 at n = 16).
FROZEN_POLAR = {
    (1, 0.001, 8): (
        complex(0.889022218065608, 0.4211533349034092),
        complex(0.2885976393025994, 0.19383448387453484),
        complex(0.18660286431332762, 0.1246984758400337),
        complex(0.18824365020262768, 0.0001441865436346768),
        complex(0.005116318797096913, 6.674029142508468e-05),
        complex(0.003324285353904385, 4.292292065975077e-05),
        complex(-186.5864684498245, -0.1441865144686867),
    ),
    (1, 0.001, 16): (
        complex(0.8887706905052112, 0.4211533348971144),
        complex(0.2885970704567038, 0.19383448386928842),
        complex(0.18660249477676266, 0.12469847583571311),
        complex(0.6712563373917707, 0.00014418654363650873),
        complex(0.006183068088694465, 6.674029142634414e-05),
        complex(0.004017031643409182, 4.292292065836019e-05),
        complex(-592.4654593796607, -0.1441865144705187),
    ),
    (1, 0.3, 8): (
        complex(0.5838643258218374, 0.4146944788456317),
        complex(0.22821997837681354, 0.19084487564024527),
        complex(0.14746951978049067, 0.12277575738981963),
        complex(0.8790680457775792, 0.042863498005243916),
        complex(0.2728531119064212, 0.01983999532909142),
        complex(0.17666740408794102, 0.012759781150070457),
        complex(0.9064731950014483, -0.14027032566106803),
    ),
    (1, 0.3, 16): (
        complex(0.5838645048874862, 0.4146944788392552),
        complex(0.22821993308691144, 0.1908448756349427),
        complex(0.14746949035913706, 0.12277575738556135),
        complex(0.879075407837939, 0.042863498005783554),
        complex(0.27285295797343107, 0.01983999532946205),
        complex(0.1766672719845665, 0.012759781149656915),
        complex(0.9066745003655471, -0.14027032566280095),
    ),
    (1, 2.0, 8): (
        complex(-0.10723817207586397, 0.18582261317281937),
        complex(-0.05125649510827217, 0.08496099910997951),
        complex(-0.032913943940780274, 0.05467642737476127),
        complex(0.12898259073647034, 0.18728820011909503),
        complex(0.057608824411948784, 0.08658897616490704),
        complex(0.037113931095440506, 0.05569171107795937),
        complex(0.21076196990448745, -0.006999558012786409),
    ),
    (1, 2.0, 16): (
        complex(-0.10723817207586397, 0.18582261317281937),
        complex(-0.05125649510827189, 0.08496099910997942),
        complex(-0.03291394394078011, 0.054676427374761236),
        complex(0.12898259073646984, 0.18728820011909503),
        complex(0.0576088244119501, 0.08658897616490699),
        complex(0.037113931095441276, 0.055691711077959324),
        complex(0.21076196990448204, -0.0069995580127864155),
    ),
    (1, 10.0, 8): (
        complex(-0.03719255383466983, -0.025169045669920294),
        complex(-0.017302554259458668, -0.011810431136572435),
        complex(-0.011124944001642788, -0.0075902205605116145),
        complex(-0.028823785851756135, 0.03461286001417569),
        complex(-0.013504408428653539, 0.016086342742628663),
        complex(-0.008679608502360145, 0.010343508909715367),
        complex(0.03131665099844782, 0.031951279509170594),
    ),
    (1, 10.0, 16): (
        complex(-0.03719255383466982, -0.025169045669920287),
        complex(-0.017302554259458654, -0.011810431136572427),
        complex(-0.011124944001642783, -0.007590220560511609),
        complex(-0.028823785851756135, 0.034612860014175684),
        complex(-0.013504408428653528, 0.016086342742628646),
        complex(-0.008679608502360138, 0.010343508909715358),
        complex(0.03131665099844781, 0.031951279509170594),
    ),
    (2, 0.001, 8): (
        complex(2.261531149791428, 0.4435023458837326),
        complex(-0.003641075843767938, -7.839948907444744e-05),
        complex(-0.001685627280977528, -3.446887139103849e-05),
        complex(2.4767872675022615, 0.000148697540394695),
        complex(-1.7212161830062328e-05, -1.5857564036723896e-08),
        complex(-8.421051949281458e-06, -6.9542738977606205e-09),
        complex(-2333.6937907406464, -0.148697510581014),
    ),
    (2, 0.001, 16): (
        complex(2.258757450035226, 0.4435040285501216),
        complex(-0.0036411189283247908, -7.790502179950975e-05),
        complex(-0.0016856554132634594, -3.4346872925188066e-05),
        complex(6.819866310462748, 0.00014869819660213968),
        complex(-0.00010340511584683645, -1.5668597301952026e-08),
        complex(-4.993805527593598e-05, -6.906543706828249e-09),
        complex(-2884.328790052236, -0.1486981667883193),
    ),
    (2, 0.3, 8): (
        complex(1.0305129561345177, 0.43684257682970645),
        complex(-0.00191811294029322, -7.722868622514069e-05),
        complex(-0.0008725953157866797, -3.420036018984318e-05),
        complex(2.441988722005806, 0.0442082429751522),
        complex(-0.006317034232454643, -4.6729210701090845e-06),
        complex(-0.00293608900959991, -2.07739657422549e-06),
        complex(7.51869274017426, -0.14469479774552896),
    ),
    (2, 0.3, 16): (
        complex(1.0305133546031033, 0.43684280518325813),
        complex(-0.0019179577900343414, -7.720221212283359e-05),
        complex(-0.000872593239485328, -3.403708236380433e-05),
        complex(2.4419991619375776, 0.04420827018269921),
        complex(-0.006314276573642195, -4.670343242618505e-06),
        complex(-0.0029356601461408257, -2.058637029679583e-06),
        complex(7.518918159785937, -0.14469488669018568),
    ),
    (2, 2.0, 8): (
        complex(-0.09695064394144615, 0.20035363062333167),
        complex(-3.773020368873312e-05, -5.073992222482705e-05),
        complex(-1.6685413527004964e-05, -2.2372595302338344e-05),
        complex(0.15081787653130607, 0.19399215889158772),
        complex(-7.94759457299829e-05, -2.329733791329308e-05),
        complex(-3.513500961040139e-05, -1.0269589988499278e-05),
        complex(0.2410452274664698, -0.008287917790591856),
    ),
    (2, 2.0, 16): (
        complex(-0.09695064394144609, 0.20035363062333167),
        complex(-3.773020368872532e-05, -5.073992222483226e-05),
        complex(-1.6685413527001494e-05, -2.237259530233661e-05),
        complex(0.15081787653130635, 0.19399215889158772),
        complex(-7.947594572991004e-05, -2.329733791329655e-05),
        complex(-3.5135009610380574e-05, -1.0269589988504482e-05),
        complex(0.24104522746647228, -0.008287917790591858),
    ),
    (2, 10.0, 8): (
        complex(-0.03763454121325823, -0.02463440309399667),
        complex(1.5115842207946185e-06, -1.8519440657589238e-06),
        complex(6.656980282024674e-07, -8.161908922677593e-07),
        complex(-0.028383813099488973, 0.03515689213365122),
        complex(-1.5286396619392916e-06, -1.8666810430783762e-06),
        complex(-6.738208055932782e-07, -8.22237420713013e-07),
        complex(0.031932501795008505, 0.031635081604681134),
    ),
    (2, 10.0, 16): (
        complex(-0.037634541213258224, -0.024634403093996664),
        complex(1.5115842207948354e-06, -1.8519440657582733e-06),
        complex(6.656980282029011e-07, -8.161908922671088e-07),
        complex(-0.028383813099488966, 0.035156892133651224),
        complex(-1.5286396619379906e-06, -1.8666810430777257e-06),
        complex(-6.738208055928445e-07, -8.22237420713013e-07),
        complex(0.031932501795008505, 0.031635081604681134),
    ),
    (3, 0.001, 8): (
        complex(1.5562880260348828, 0.436824136120212),
        complex(-0.024063377794363544, -0.01421252788317343),
        complex(0.29407707299745567, 0.1290177102199281),
        complex(0.8873812063370478, 0.00014735346349407198),
        complex(-2.1871509157762523e-05, -4.841609455165408e-06),
        complex(0.010954320210392419, 4.3796894292479614e-05),
        complex(-861.8280683400066, -0.14735343387305527),
    ),
    (3, 0.001, 16): (
        complex(1.5551883227978234, 0.43682420984062126),
        complex(-0.02406327153969888, -0.014212671923109564),
        complex(0.29407567100206505, 0.12901800862435508),
        complex(2.822614537555575, 0.00014735351563108486),
        complex(-0.00010238553487376071, -4.841672430930058e-06),
        complex(0.012807106487950214, 4.379704079267618e-05),
        complex(-1867.0639788554472, -0.1473534860100555),
    ),
    (3, 0.3, 8): (
        complex(0.8479917841662681, 0.4302232301864697),
        complex(-0.01969429303917688, -0.013995645243475106),
        complex(0.20775730376102391, 0.12705579040380557),
        complex(1.6817766932153364, 0.0438074465654094),
        complex(-0.023538622033735232, -0.0014393319963268833),
        complex(0.3280885943114728, 0.013020281163098057),
        complex(3.6625816321013254, -0.14337607356363008),
    ),
    (3, 0.3, 16): (
        complex(0.8479916054218051, 0.4302233015737767),
        complex(-0.019694208073260056, -0.013995786463594676),
        complex(0.20775700617392198, 0.12705608224963183),
        complex(1.6817773618606697, 0.04380746203288838),
        complex(-0.023538600824898892, -0.0014393507017812575),
        complex(0.3280883995358337, 0.013020324662538284),
        complex(3.662612018470447, -0.14337612396851157),
    ),
    (3, 2.0, 8): (
        complex(-0.10014825632202434, 0.19600495389578199),
        complex(0.0035038599607454014, -0.006306904495681862),
        complex(-0.030998257993745833, 0.057481226970781216),
        complex(0.14406812592772583, 0.19199309812313264),
        complex(-0.004452509129069391, -0.006295547191740605),
        complex(0.041202527755168236, 0.05699000747737637),
        complex(0.23143707326627805, -0.007902652131524131),
    ),
    (3, 2.0, 16): (
        complex(-0.10014825632202434, 0.19600495389578196),
        complex(0.003503859960745372, -0.0063069044956818535),
        complex(-0.030998257993745733, 0.057481226970781174),
        complex(0.14406812592772567, 0.19199309812313264),
        complex(-0.004452509129069597, -0.006295547191740598),
        complex(0.041202527755168694, 0.056990007477376335),
        complex(0.2314370732662765, -0.007902652131524128),
    ),
    (3, 10.0, 8): (
        complex(-0.03750431811986071, -0.02479343803236572),
        complex(0.0012433418650716669, 0.0008347425969920841),
        complex(-0.011211474656473798, -0.007486449526528254),
        complex(-0.028514985574380224, 0.03499621022646139),
        complex(0.0009573385570187183, -0.0011581504943517758),
        complex(-0.008594389429371492, 0.010449783667437419),
        complex(0.03175025352591228, 0.031729667561094806),
    ),
    (3, 10.0, 16): (
        complex(-0.03750431811986071, -0.024793438032365715),
        complex(0.0012433418650716647, 0.0008347425969920835),
        complex(-0.011211474656473791, -0.007486449526528249),
        complex(-0.02851498557438022, 0.03499621022646139),
        complex(0.0009573385570187172, -0.0011581504943517745),
        complex(-0.008594389429371485, 0.010449783667437412),
        complex(0.03175025352591227, 0.031729667561094806),
    ),
    (4, 0.001, 8): (
        complex(0.4000454209541511, 0.39804734357134663),
        complex(-0.27816731419542795, -0.30739354226681864),
        complex(-0.06226154928234927, -0.05938562431608603),
        complex(-0.1569087535325584, 0.0001394799249576655),
        complex(-0.00020369831982899878, -0.000108357098062644),
        complex(-4.804130163651218e-05, -2.085384267027141e-05),
        complex(149.1553288175931, -0.1394798964708826),
    ),
    (4, 0.001, 16): (
        complex(0.40022401075718417, 0.3980473251214045),
        complex(-0.2781673266970396, -0.3073934684684652),
        complex(-0.06226140843028269, -0.059385726502708854),
        complex(-0.4350056067919611, 0.000139479907051117),
        complex(-0.0005166678865238814, -0.00010835705882200416),
        complex(-0.0001541828263464588, -2.0853895393613232e-05),
        complex(151.89887587399824, -0.13947987856433897),
    ),
    (4, 0.3, 8): (
        complex(0.34610816185608334, 0.39179959647095863),
        complex(-0.24245881408948353, -0.30253993929524065),
        complex(-0.05325006294687691, -0.05845151863492945),
        complex(0.3176812444831065, 0.04146065855976219),
        complex(-0.21380426642629707, -0.03220862014128185),
        complex(-0.052216154602003476, -0.006198790252754045),
        complex(-0.5936755450526576, -0.135655015854959),
    ),
    (4, 0.3, 16): (
        complex(0.3461090824821353, 0.39179957882211636),
        complex(-0.24245904168363602, -0.302539867253461),
        complex(-0.05324999606457025, -0.058451618461371604),
        complex(0.3176906448013997, 0.0414606532502005),
        complex(-0.21381080269910577, -0.03220860849208712),
        complex(-0.0522174434152714, -0.006198805905366645),
        complex(-0.5938631131885312, -0.1356549985709321),
    ),
    (4, 2.0, 8): (
        complex(-0.11659323047488988, 0.17086823882970367),
        complex(0.09300399292922451, -0.13099854436578298),
        complex(0.017547131430644743, -0.025426424301851512),
        complex(0.10859604691254521, 0.18030575816493136),
        complex(-0.08136596897361732, -0.13990207425550635),
        complex(-0.016121142535793376, -0.026945541047976654),
        complex(0.18456240513246217, -0.005670276438627686),
    ),
    (4, 2.0, 16): (
        complex(-0.11659323047489503, 0.1708682388297037),
        complex(0.09300399292922402, -0.13099854436578295),
        complex(0.017547131430644857, -0.02542642430185152),
        complex(0.10859604691250965, 0.18030575816493144),
        complex(-0.08136596897359848, -0.13990207425550627),
        complex(-0.016121142535786323, -0.026945541047976654),
        complex(0.18456240513222266, -0.005670276438627684),
    ),
    (4, 10.0, 8): (
        complex(-0.036713863891707894, -0.025730277268180297),
        complex(0.02866585448075408, 0.020263273679127676),
        complex(0.005499064596171711, 0.0038678669780507938),
        complex(-0.029282157976544623, 0.0340282915560723),
        complex(0.023025495988960615, -0.026541913550736176),
        complex(0.004398908613960427, -0.0050947357638773845),
        complex(0.03065907355444614, 0.032277026028219816),
    ),
    (4, 10.0, 16): (
        complex(-0.036713863891707894, -0.025730277268180304),
        complex(0.028665854480754066, 0.02026327367912766),
        complex(0.00549906459617171, 0.003867866978050792),
        complex(-0.029282157976544626, 0.0340282915560723),
        complex(0.023025495988960597, -0.026541913550736162),
        complex(0.004398908613960424, -0.005094735763877384),
        complex(0.03065907355444614, 0.032277026028219816),
    ),
}


def verts_rel(proj):
    """Sample triangle shifted so the projection sits at the origin."""
    return VERTS - np.asarray(proj)


class TestGaussRule:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 50])
    def test_weights_and_exactness(self, n):
        x, w = gauss_rule(n)
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
        # integrates monomials up to degree 2n-1 exactly
        for p in range(0, 2 * n, max(1, (2 * n) // 8)):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert np.sum(w * x**p) == pytest.approx(exact, abs=1e-13)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            gauss_rule(0)

    @pytest.mark.parametrize("n", [*range(1, 18), 50])
    def test_matches_40_digit_rule(self, n):
        # the reference: a few 40-digit Newton steps on P_n from each double
        # node, and the weight 2 / ((1 - x^2) P_n'(x)^2) at the root.  Bounds
        # with a margin over what the rule reaches (half an ulp, 2.5 machine
        # epsilons); numpy.polynomial.legendre.leggauss reaches 1.5e-14 at
        # n = 17 and 9.6e-13 at n = 50
        x, w = gauss_rule(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        with mpmath.workdps(40):
            for xi, wi in zip(x.tolist(), w.tolist()):
                t = mpmath.mpf(xi)
                for _ in range(4):
                    p = mpmath.legendre(n, t)
                    dp = n * (mpmath.legendre(n - 1, t) - t * p) / (1 - t * t)
                    t -= p / dp
                dp = n * (mpmath.legendre(n - 1, t) - t * mpmath.legendre(n, t)) / (1 - t * t)
                assert abs(xi - t) <= math.ulp(float(t)), (n, xi)
                assert abs(wi / (2 / ((1 - t * t) * dp * dp)) - 1) <= 1e-15, (n, xi)


class TestPolarNodes:
    def test_weights_sum_to_area(self):
        # the radial direction is polynomial-exact; the angle direction
        # carries sec^2, so wide-span (interior) decompositions need more
        # points than narrow vertex/exterior ones
        for proj, n in (
            ((0.0, 0.0), 16),
            ((2.0, 1.0), 8),
            ((0.5, 0.0), 24),
            ((0.45, 0.3), 24),
        ):
            verts = verts_rel(proj)
            _, _, w = flat_nodes(verts, n, 0.0)
            assert np.sum(w) == pytest.approx(shoelace_area(verts), abs=1e-13)

    def test_area_error_decays_geometrically(self):
        verts = verts_rel((0.45, 0.3))
        errs = [
            abs(np.sum(flat_nodes(verts, n, 0.0)[2]) - shoelace_area(verts))
            for n in (6, 12)
        ]
        assert errs[1] < 1e-3 * errs[0]

    def test_far_side_nodes_exact_for_area(self):
        # with |z| >= s on every subtriangle the angular nodes lie on
        # u = s tan(theta), where the area factor is constant
        verts = verts_rel((0.45, 0.3))
        _, _, w = flat_nodes(verts, 2, z=10.0)
        assert np.sum(w) == pytest.approx(shoelace_area(verts), abs=1e-14)
        # z = 0.3 lies between the s of the centroid's subtriangles, so
        # theta and u nodes mix within one call
        verts = verts_rel(SAMPLE_PROJECTIONS[2])
        s = [ref_params(sub, 0.0).s for sub in subdivide(verts)]
        assert min(s) <= 0.3 < max(s)
        _, _, w = flat_nodes(verts, 24, z=0.3)
        assert np.sum(w) == pytest.approx(shoelace_area(verts), abs=1e-14)

    def test_polynomial_moment(self):
        # x-moment of the triangle about an arbitrary origin
        verts = verts_rel((0.45, 0.3))
        x, y, w = flat_nodes(verts, 24, 0.0)
        exact = shoelace_area(verts) * np.mean(verts[:, 0])  # centroid rule
        assert np.sum(w * x) == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 8])
    def test_rays(self, n):
        # n angle nodes per subtriangle, n radial nodes on each ray at the
        # fractions rho of its far-side point; the node count is len(r2)
        verts = verts_rel(SAMPLE_PROJECTIONS[4])
        fan = subdivide(verts)
        r2, points, area = polar_nodes(fan, n, 0.3)
        assert len(fan) == 3 and points.shape == (3 * n, 2) and area.shape == (3 * n,)
        assert len(r2) == 3 * n * n
        x, y, _ = flat_nodes(verts, n, 0.3)
        assert np.allclose(r2, x * x + y * y, rtol=1e-14, atol=0.0)
        # an empty fan has no rays: the ray table reshapes to (0, 4)
        r2, points, area = polar_nodes([], n, 0.3)
        assert r2.shape == (0,) and points.shape == (0, 2) and area.shape == (0,)


class TestPolarIntegrate:
    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("want_hyper", [False, True])
    @pytest.mark.parametrize("z", [0.0, 0.3])
    def test_empty_fan_gives_zeros(self, z, want_hyper, n):
        got = polar_integrate([], z, 1.0, n, want_hyper=want_hyper).values
        assert got.shape == (7 if want_hyper else 6,) and not got.any()

    @pytest.mark.parametrize("z, k", [(math.nan, 1.0), (math.inf, 1.0), (0.3, math.nan), (0.3, math.inf), (0.3, -1.0)])
    def test_non_finite_input_raises(self, z, k):
        with pytest.raises(ValueError):
            polar_integrate(subdivide(VERTS), z, k, 8)

    @pytest.mark.parametrize("k", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
    def test_bool_wavenumber_raises(self, k):
        # polar_integrate(fan, 0.1, True, 8) once ran as k = 1
        with pytest.raises(ValueError, match="^k must be finite and real"):
            polar_integrate(subdivide(VERTS), 0.1, k, 8)

    @pytest.mark.parametrize("flag", ["no", 1, None, np.array([True])])
    def test_hyper_flag_not_a_bool_raises(self, flag):
        # "no" once ran the hypersingular term
        with pytest.raises(ValueError, match="want_hyper must be a bool"):
            polar_integrate(subdivide(VERTS), 0.1, 1.0, 8, want_hyper=flag)

    @pytest.mark.parametrize("z", [1e155, -1e155, math.nextafter(Z_MAX, math.inf)])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_height_whose_square_overflows_raises(self, z, k):
        # z = 1e155 once returned NaN values with a RuntimeWarning from np.cos or np.multiply
        with pytest.raises(ValueError, match="square"):
            polar_integrate(subdivide(verts_rel((0.4, 0.3))), z, k, 8, want_hyper=True)

    @pytest.mark.parametrize("z", [1e154, -1e154, Z_MAX, -Z_MAX])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_largest_heights_give_finite_values(self, z, k):
        # the bound is the float range's: up to Z_MAX the kernel is finite
        with np.errstate(all="raise", under="ignore"):  # subnormal dI/dn terms are fine
            got = polar_integrate(subdivide(verts_rel((0.4, 0.3))), z, k, 8, want_hyper=True).values
        assert np.isfinite(got).all()
        assert abs(got[0]) == pytest.approx(0.45 / abs(z), rel=1e-12)

    @pytest.mark.parametrize("n", [2.0, True, 0, -3])
    def test_bad_order_raises(self, n):
        # the check evaluate makes on a forced n_gauss, not an error from inside NumPy;
        # the caches of gauss_rule and polar_rule are typed, so their entries for
        # np.int64(2) and np.int64(1) never answer 2.0 and True
        gauss_rule(np.int64(1)), gauss_rule(np.int64(2))
        numquad.polar_rule(np.int64(1)), numquad.polar_rule(np.int64(2))
        with pytest.raises(ValueError, match="n_gauss"):
            polar_integrate(subdivide(VERTS), 0.3, 1.0, n)
        with pytest.raises(ValueError, match="n_gauss"):
            gauss_rule(n)
        with pytest.raises(ValueError, match="n_gauss"):
            polar_nodes(subdivide(VERTS), n, 0.3)

    @pytest.mark.parametrize("key", sorted(FROZEN_POLAR))
    def test_matches_frozen(self, key):
        proj, z, n = key
        got = polar_integrate(subdivide(verts_rel(SAMPLE_PROJECTIONS[proj])), z, 1.0, n, want_hyper=True)
        names = ("i0", "ix", "iy", "di0_dn", "dix_dn", "diy_dn", "d2i0_dn2")
        for name, want in zip(names, FROZEN_POLAR[key]):
            assert abs(getattr(got, name) - want) <= 1e-13 * (1.0 + abs(want)), name

    def test_reference_order_matches_oracle(self):
        # 50 x 50 polar Gauss agrees with the adaptive value at z = 1
        verts = verts_rel((0.45, 0.3))
        got = polar_integrate(subdivide(verts), 1.0, 1.0, 50)
        ref = adaptive_oracle(verts, 1.0, 1.0, tol=1e-13)
        assert abs(got.i0 - ref.i0) <= 1e-8 * abs(ref.i0)
        assert abs(got.di0_dn - ref.di0_dn) <= 1e-8 * abs(ref.di0_dn)

    def test_low_order_fails_near_field(self):
        verts = verts_rel((0.45, 0.3))
        ref = adaptive_oracle(verts, 0.05, 1.0, tol=1e-13, components=("i0",))
        err4 = abs(polar_integrate(subdivide(verts), 0.05, 1.0, 4).i0 - ref.i0)
        err32 = abs(polar_integrate(subdivide(verts), 0.05, 1.0, 32).i0 - ref.i0)
        assert err4 > 100 * err32

    @pytest.mark.parametrize("z", [2.0, 10.0, 30.0])
    def test_low_order_resolves_angle_far_field(self, z):
        # far from the plane 1/R is nearly constant, and the whole
        # difficulty is the area factor rbar^2 of the angle integrand; with
        # theta nodes n = 4 missed by 1e-3..7e-5 here
        verts = verts_rel((0.45, 0.3))
        ref = adaptive_oracle(verts, z, 1.0, tol=1e-13, components=("i0",))
        assert abs(polar_integrate(subdivide(verts), z, 1.0, 4).i0 - ref.i0) <= 1e-6

    def test_z_zero_regular(self):
        # exterior projection at z = 0: integrand is e^{jkr}, regular
        verts = verts_rel((2.0, 1.0))
        got = polar_integrate(subdivide(verts), 0.0, 1.0, 20)
        ref = adaptive_oracle(verts, 0.0, 1.0, tol=1e-13, components=("i0",))
        assert abs(got.i0 - ref.i0) <= 1e-10

    @pytest.mark.parametrize("proj", [1, 2, 3])
    def test_z_zero_fallback_subtended_angle(self, proj):
        # at k = 2 the vertex and edge projections exceed the expansion's
        # k * r_max < pi/2 and fall back to n = 50; at z = 0 its dI0/dn is
        # the one-sided limit of the analytic path (admissible at k = 1,
        # and the limit does not depend on k): the subtended angle, which
        # the analytic value meets within its dI0/dn contract, 100 tol
        tri = sample_triangle()
        pt = sample_field_point(proj, 0.0)
        v1, v2, v3 = VERTS
        want = {
            1: math.acos(np.dot(v2 - v1, v3 - v1) / (np.linalg.norm(v2 - v1) * np.linalg.norm(v3 - v1))),
            2: 2.0 * math.pi,
            3: math.pi,
        }[proj]
        rep = evaluate(EvalRequest(tri, pt, k=2.0, tol=1e-9), method="numeric")
        assert rep.method.kind == "numeric" and rep.method.n_gauss == N_FALLBACK
        if proj != 2:
            auto = evaluate(EvalRequest(tri, pt, k=2.0, tol=1e-9))
            assert "k*r_max" in auto.method.note and auto.result.di0_dn == rep.result.di0_dn
        analytic = evaluate(EvalRequest(tri, pt, k=1.0, tol=1e-12), method="analytic")
        assert analytic.method.kind == "analytic"
        assert abs(rep.result.di0_dn - want) <= 1e-13
        assert abs(rep.result.di0_dn - analytic.result.di0_dn) <= 100 * 1e-12

    @pytest.mark.parametrize("k", [1.0, 2.0, 20.0])
    def test_z_zero_hypersingular_matches_oracle(self, k):
        # in-plane, d2I0/dn2 of the n = 50 rule is the finite part of the
        # limit from z > 0, ray by ray: the oracle's value at z = 0, at
        # every sample projection (at k = 2 and 20 the vertex and edge ones
        # are the engine's numeric fallback)
        tri = sample_triangle()
        for proj in sorted(SAMPLE_PROJECTIONS):
            pt = sample_field_point(proj, 0.0)
            rep = evaluate(EvalRequest(tri, pt, k=k, tol=1e-9, want_hypersingular=True), method="numeric", n_gauss=50)
            assert rep.z == 0.0
            ref = adaptive_oracle(verts_rel(SAMPLE_PROJECTIONS[proj]), 0.0, k, tol=1e-13, want_hyper=True)
            got = rep.result.d2i0_dn2
            assert abs(got - ref.d2i0_dn2) <= 1e-12 * max(1.0, abs(ref.d2i0_dn2)), (proj, got, ref.d2i0_dn2)

    @pytest.mark.parametrize("n", [2, 8, 50])
    @pytest.mark.parametrize("z", [0.0, 1e-4, 0.3, 10.0])
    def test_ray_sums_match_flat_sums(self, n, z):
        # the kernel summed ray by ray against the same rule summed node by
        # node (tests/helpers), every component, every sample projection
        for proj in sorted(SAMPLE_PROJECTIONS):
            verts = verts_rel(SAMPLE_PROJECTIONS[proj])
            fan = subdivide(verts)
            got = polar_integrate(fan, z, 1.0, n, want_hyper=True).values
            want = flat_kernel_sums(*flat_nodes(verts, n, z), z, 1.0, want_hyper=True)
            if z == 0.0:
                # dI0/dn is the jump term there, and d2I0/dn2 the finite
                # part of its limit (test_z_zero_hypersingular_matches_oracle),
                # not the flat rule's divergent sum of d2G
                got[3] -= sum(sub.sign * (sub.theta_hi - sub.theta_lo) for sub in fan)
                got, want = got[:6], want[:6]
            assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want))), (proj, got - want)

    def test_hypersingular_kernel(self):
        verts = verts_rel((0.45, 0.3))
        got = polar_integrate(subdivide(verts), 0.8, 1.0, 40, want_hyper=True)
        h = 1e-4
        up = polar_integrate(subdivide(verts), 0.8 + h, 1.0, 40).i0
        dn = polar_integrate(subdivide(verts), 0.8 - h, 1.0, 40).i0
        fd = (up - 2 * polar_integrate(subdivide(verts), 0.8, 1.0, 40).i0 + dn) / h**2
        assert abs(got.d2i0_dn2 - fd) <= 1e-5 * abs(fd)


class TestKernelRows:
    """``numquad.kernel_rows`` node by node against ``helpers.kernel_closed_forms``, within its rounding bound."""

    @pytest.mark.parametrize("nodes", [1, 9, 289, 2500])
    @pytest.mark.parametrize("k", [0.0, 0.9, 20.0])
    @pytest.mark.parametrize("z", [0.0, 1e-8, 0.3, 1e3])
    def test_rows_match_the_closed_forms(self, nodes, k, z):
        rng = np.random.default_rng([nodes, round(10 * k)])
        r2 = rng.uniform(1e-4, 4.0, nodes)
        rows = numquad.kernel_rows(r2, z, k, 3)
        assert type(rows) is tuple and len(rows) == 3
        assert all(row.shape == (nodes,) and row.dtype == complex for row in rows)
        ref, sizes = map(np.array, zip(*(kernel_closed_forms(r, z, k) for r in r2.tolist())))
        eps = np.finfo(float).eps
        for i, row in enumerate(rows):
            bound = 2.0 * KERNEL_ROUNDINGS[i] * eps * sizes[:, i]
            assert np.all(np.abs(row - ref[:, i]) <= bound), (i, np.max(np.abs(row - ref[:, i]) / bound))
        # fewer rows are the leading rows, bit for bit
        for m in (1, 2):
            fewer = numquad.kernel_rows(r2, z, k, m)
            assert len(fewer) == m and all(np.array_equal(a, b) for a, b in zip(fewer, rows))


class TestAdaptiveOracle:
    def test_exact_inner_identity(self):
        # the closed-form radial integral equals brute 2-D quadrature
        verts = verts_rel((0.45, 0.3))
        z, k = 0.7, 1.0
        o = adaptive_oracle(verts, z, k, tol=1e-13, components=("i0",))
        p = polar_integrate(subdivide(verts), z, k, 50)
        assert abs(o.i0 - p.i0) <= 1e-12

    def test_near_singular_convergence(self):
        # z = 1e-6 above an interior point: integrable singularity; the
        # adaptive value and the expansion path agree to 10x the request
        from helmpanel.engine import EvalRequest, evaluate, sample_triangle

        verts = verts_rel((0.45, 0.3))
        o, status = adaptive_oracle(
            verts, 1e-6, 1.0, tol=1e-12, components=("i0",), return_status=True
        )
        assert status["converged"]
        assert np.isfinite(o.i0.real) and np.isfinite(o.i0.imag)
        rep = evaluate(
            EvalRequest(
                triangle=sample_triangle(),
                field_point=np.array([0.45, 0.3, 1e-6]),
                k=1.0,
                tol=1e-10,
            ),
            method="analytic",
        )
        assert abs(rep.result.i0 - o.i0) <= 10 * 1e-10

    def test_laplace_vertex_closed_form(self):
        # k = 0, projection on a vertex: sum of s * [asinh(tan theta)]
        # over subtriangles, derived independently of the library
        from helmpanel.geometry import ref_params, subdivide

        verts = verts_rel((0.0, 0.0))
        o = adaptive_oracle(verts, 0.0, 0.0, tol=1e-13, components=("i0",))
        closed = 0.0
        for sub in subdivide(verts):
            g = ref_params(sub, 0.0)
            closed += sub.sign * g.s * (
                math.asinh(math.tan(g.theta_hi)) - math.asinh(math.tan(g.theta_lo))
            )
        assert o.i0.real == pytest.approx(closed, rel=1e-12)
        assert o.i0.imag == 0.0

    def test_xy_components_match_polar(self):
        verts = verts_rel((0.45, 0.3))
        z, k = 0.5, 1.0
        o = adaptive_oracle(verts, z, k, tol=1e-12)
        p = polar_integrate(subdivide(verts), z, k, 50)
        assert abs(o.ix - p.ix) <= 1e-10
        assert abs(o.iy - p.iy) <= 1e-10
        assert abs(o.dix_dn - p.dix_dn) <= 1e-10
        assert abs(o.diy_dn - p.diy_dn) <= 1e-10

    def test_exterior_point_matches_tri_rule(self):
        # a regular integrand: the symmetric triangle rule, through the
        # node-by-node kernel sums of the tests, is an independent check of
        # every component
        verts = verts_rel((2.0, 1.0))
        rule = tri_rule(16)
        nodes = rule.bary @ verts
        w = rule.weights * shoelace_area(verts)
        i0, ix, _, di0, _, _, d2i0 = flat_kernel_sums(nodes[:, 0], nodes[:, 1], w, 0.5, 1.0, want_hyper=True)
        ref = adaptive_oracle(verts, 0.5, 1.0, tol=1e-13, want_hyper=True)
        assert abs(i0 - ref.i0) <= 1e-10
        assert abs(di0 - ref.di0_dn) <= 1e-10
        assert abs(ix - ref.ix) <= 1e-10
        assert abs(d2i0 - ref.d2i0_dn2) <= 1e-9

    @pytest.mark.parametrize(
        "verts, z, k, tol",
        [
            (VERTS, math.nan, 1.0, 1e-13),
            (VERTS, math.inf, 1.0, 1e-13),
            (VERTS, 0.5, math.nan, 1e-13),
            (VERTS, 0.5, math.inf, 1e-13),
            (VERTS, 0.5, -1.0, 1e-13),
            (VERTS, 0.5, 1.0, 0.0),
            (VERTS, 0.5, 1.0, math.nan),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]], 0.5, 1.0, 1e-13),
        ],
    )
    def test_non_finite_input_raises(self, verts, z, k, tol):
        with pytest.raises(ValueError):
            adaptive_oracle(verts, z, k, tol=tol, want_hyper=True, return_status=True)

    @pytest.mark.parametrize("k", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
    def test_bool_wavenumber_raises(self, k):
        # adaptive_oracle(verts, 0.1, True) once ran as k = 1
        with pytest.raises(ValueError, match="^k must be finite and real"):
            adaptive_oracle(VERTS, 0.1, k)

    @pytest.mark.parametrize("flag", ["no", 1, None, np.array([True])])
    def test_hyper_flag_not_a_bool_raises(self, flag):
        # "no" once ran the hypersingular term
        with pytest.raises(ValueError, match="want_hyper must be a bool"):
            adaptive_oracle(VERTS, 0.1, 1.0, want_hyper=flag)

    @pytest.mark.parametrize("z", [1e155, -1e155, math.nextafter(Z_MAX, math.inf)])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_height_whose_square_overflows_raises(self, z, k):
        # z = 1e155 once raised OverflowError: cannot convert float infinity to integer
        with pytest.raises(ValueError, match="square"):
            adaptive_oracle(verts_rel((0.4, 0.3)), z, k, tol=1e-6)

    @pytest.mark.parametrize("z", [1e154, -Z_MAX])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_largest_heights_give_finite_values(self, z, k):
        got, status = adaptive_oracle(verts_rel((0.4, 0.3)), z, k, tol=1e-6, return_status=True)
        assert np.isfinite(got.values).all() and status["converged"]

    @pytest.mark.parametrize("z", [6e102, 1e154])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_largest_heights_with_hypersingular(self, z, k):
        # d2I0/dn2 up to Z_MAX: no intermediate of its radial term, (rbar / Rbar)^2 / Rbar,
        # leaves the float range (Rbar^3 would above |z| = 5.6e102)
        verts = verts_rel((0.4, 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = adaptive_oracle(verts, z, k, tol=1e-13, want_hyper=True).values
        want = polar_integrate(subdivide(verts), z, k, 16, want_hyper=True).values
        assert np.isfinite(got).all()
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("z", [1e4, 1e6, 6e102, 1e154])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_far_above_keeps_relative_accuracy(self, z, k):
        # R - |z| is formed without cancellation and every term as a ratio, so all
        # components keep their relative accuracy where they are far below 1e-13
        # (I0 once read 0 at z = 6e102, and dI0/dn was 2.2e-5 off at z = 1e6, where
        # sigma e^{jk|z|} - (z / Rbar) e^{jk Rbar} cancelled).  At z = 1e154, k = 0 the
        # polar rule's derivatives underflow to 0 (dI0/dn is about 4.5e-309 there):
        # relative accuracy is asked down to the smallest normal float
        verts = verts_rel((0.4, 0.3))
        got, status = adaptive_oracle(verts, z, k, tol=1e-13, want_hyper=True, return_status=True)
        want = polar_integrate(subdivide(verts), z, k, 48, want_hyper=True)
        assert status["converged"]
        for name in ("i0", "ix", "di0_dn", "dix_dn", "d2i0_dn2"):
            bound = 1e-11 * abs(getattr(want, name)) + sys.float_info.min
            assert abs(getattr(got, name) - getattr(want, name)) <= bound, name

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_status_error_bounds_far_error(self, k):
        # points 1e2 to 1e11 diameters from the centroid, in random directions
        # above the plane: the status error bounds I0's error against the
        # symmetric triangle rule.  The oracle once dropped the edges that the
        # walk's area and angle tests drop (exact zeros with error 0 from about
        # 1e10), took each edge's u-width as a difference of two rounded asinh
        # (1e-2 of I0 at 1e7 diameters, k = 0) and left the rounding of its
        # phases out of the estimate
        rng = np.random.default_rng(44)
        rule = tri_rule(16)
        diam = math.hypot(0.6, 0.9)
        for D in np.logspace(2.0, 11.0, 28) * diam:
            azimuth, elevation = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 0.5 * math.pi)
            p = VERTS.mean(axis=0) + D * math.cos(elevation) * np.array([math.cos(azimuth), math.sin(azimuth)])
            z = D * math.sin(elevation)
            verts = VERTS - p
            e = verts[1:] - verts[0]  # node and area from the edges: a shoelace of far vertices cancels
            nodes = verts[0] + rule.bary[:, 1:] @ e
            w = rule.weights * (0.5 * (e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]))
            want = flat_kernel_sums(nodes[:, 0], nodes[:, 1], w, z, k)[0]
            got, status = adaptive_oracle(verts, z, k, components=("i0",), return_status=True)
            assert abs(got.i0 - want) <= status["error"], D / diam

    def test_in_plane_just_inside_an_edge(self):
        # 1e-11 inside the edge y = 0, beyond the boundary tolerance (1.1e-12
        # here): inside, where dI0/dn is the full angle 2 pi.  The oracle once
        # took the walk's angle test, which drops the near edge and gives pi
        got = adaptive_oracle(verts_rel((0.5, 1e-11)), 0.0, 1.0)
        assert abs(got.di0_dn - 2.0 * math.pi) <= 1e-12

    @pytest.mark.parametrize("components", [("ix", "iy"), ("i0", "d2i0"), "ixy"])
    def test_unknown_component_raises(self, components):
        with pytest.raises(ValueError, match="components"):
            adaptive_oracle(VERTS, 0.5, 1.0, tol=1e-13, components=components)

    def test_status_error_follows_only_returned_columns(self):
        # without want_hyper, d2I0/dn2 is neither integrated nor judged: it
        # no longer steers the refinement or the roundoff term of the estimate
        verts = verts_rel(SAMPLE_PROJECTIONS[2])
        errors = [
            adaptive_oracle(
                verts, 1e-4, 1.0, tol=1e-13, want_hyper=hyper, components=("i0", "di0"),
                return_status=True,
            )[1]["error"]
            for hyper in (False, True)
        ]
        assert errors[0] < errors[1]

    def test_ixy_and_dixy_name_the_same_work(self):
        # either name gives the x/y moments and their normal derivatives
        verts = verts_rel(SAMPLE_PROJECTIONS[2])
        a = adaptive_oracle(verts, 0.05, 1.0, components=("ixy",))
        b = adaptive_oracle(verts, 0.05, 1.0, components=("dixy",))
        np.testing.assert_array_equal(a.values, b.values)
        assert a.dix_dn != 0.0

    @pytest.mark.parametrize("want_hyper", [False, True])
    def test_empty_fan_gives_zeros(self, want_hyper):
        # collinear vertices through the projection subtend no angle
        got, status = adaptive_oracle(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 0.3, 1.0, want_hyper=want_hyper, return_status=True
        )
        np.testing.assert_array_equal(got.values, np.zeros(7 if want_hyper else 6))
        assert status == {"error": 0.0, "converged": True}

    @pytest.mark.parametrize("z", [0.0, 0.3])
    def test_repeated_vertex_gives_zeros(self, z):
        # a zero-length edge has no direction and the others no area: exact zeros
        got, status = adaptive_oracle([[0.2, 0.1], [0.2, 0.1], [1.0, 0.5]], z, 1.0, want_hyper=True, return_status=True)
        np.testing.assert_array_equal(got.values, np.zeros(7))
        assert status == {"error": 0.0, "converged": True}

    def test_status_reports_achieved_error(self):
        verts = verts_rel((0.45, 0.3))
        _, status = adaptive_oracle(
            verts, 0.5, 1.0, tol=1e-13, components=("i0",), return_status=True
        )
        assert status["converged"]
        assert status["error"] <= 1e-13

    @pytest.mark.parametrize("x", [0.0, 1e-8, 1e-3, math.nextafter(0.5, 0.0), 0.5, 3.0, 1e3])
    @pytest.mark.parametrize("k", [0.0, 20.0])
    def test_edge_line_moment_closed_form(self, k, x):
        # int_0^s (e^{jk|t|} - 1) / (jk) dt, |t| at k = 0, against mpmath at
        # x = k|s| on each side of the series switch at 1/2 and both signs
        # of s (at k = 0, s = x + 0.7); the integrand is even in t
        s = x / k if k else x + 0.7
        with mpmath.workdps(30):
            f = (lambda t: (mpmath.expj(k * t) - 1) / (1j * k)) if k else abs
            want = complex(mpmath.quad(f, mpmath.linspace(0, s, 2 + math.ceil(x / 30))))
        eps = np.finfo(float).eps
        for sign in (1.0, -1.0):
            got = numquad.edge_line_moment(sign * s, k)
            assert abs(got - sign * want) <= 2 * eps * max(1.0, abs(want)), (sign, got, want)

    @pytest.mark.parametrize("key", sorted(FROZEN_ORACLE))
    def test_full_components_match_frozen(self, key):
        proj, z = key
        got, status = adaptive_oracle(
            verts_rel(SAMPLE_PROJECTIONS[proj]), z, 1.0, tol=1e-13, want_hyper=True,
            return_status=True,
        )
        assert status["converged"]
        names = ("i0", "ix", "iy", "di0_dn", "dix_dn", "diy_dn", "d2i0_dn2")
        for name, want in zip(names, FROZEN_ORACLE[key]):
            assert abs(getattr(got, name) - want) <= 1e-13, name

    @pytest.mark.parametrize("proj", [1, 2, 3, 4])
    def test_below_the_plane_mirrors_above(self, proj):
        # I0, the moments and d2I0/dn2 are even in z and the first normal
        # derivatives odd; the frozen values are all above the plane, and a
        # sign slip in sigma would show only below it
        verts = verts_rel(SAMPLE_PROJECTIONS[proj])
        for z in (1e-3, 0.3):
            above = adaptive_oracle(verts, z, 1.0, tol=1e-13, want_hyper=True).values
            below = adaptive_oracle(verts, -z, 1.0, tol=1e-13, want_hyper=True).values
            mirror = above * np.array([1, 1, 1, -1, -1, -1, 1])
            assert np.all(np.abs(below - mirror) <= 1e-14 * (1.0 + np.abs(above))), z
        # at |z| = 5e-324 the edges through a vertex or edge projection have an h
        # that r_max / h overflows: their moments are taken in closed form, and
        # with z != 0 their normal derivatives add nu sigma L; the one-sided
        # limits of z = 0, mirrored below the plane
        zero = adaptive_oracle(verts, 0.0, 1.0, tol=1e-13).values
        for sign in (1.0, -1.0):
            tiny = adaptive_oracle(verts, sign * 5e-324, 1.0, tol=1e-13).values
            mirror = zero * np.array([1, 1, 1, sign, sign, sign])
            assert np.all(np.abs(tiny - mirror) <= 1e-14 * (1.0 + np.abs(zero))), sign

    def test_in_plane_matches_frozen(self):
        # z = 0 at the four sample projections, k = 0, 1, 2, both vertex orders:
        # the subtended angle, the finite part and the in-plane edge lines
        # (h = 0 on the edges through the vertex and edge projections)
        frozen = json.loads((Path(__file__).parent / "data" / "oracle_inplane_frozen.json").read_text())
        assert len(frozen["rows"]) == 24
        for proj, k, order, *parts in frozen["rows"]:
            verts = verts_rel(SAMPLE_PROJECTIONS[proj])[::order]
            got, status = adaptive_oracle(verts, 0.0, k, tol=1e-13, want_hyper=True, return_status=True)
            assert status["converged"]
            want = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
            assert np.max(np.abs(got.values - want)) <= 1e-13, (proj, k, order)

    def test_converges_far_below_tol(self):
        # the pieces reach the roundoff floor while their estimate is
        # already far below tol: the pass must end converged there, not
        # bisect until its interval cap
        verts = np.array([[-0.748847, -0.911343], [-0.929882, 0.512319], [0.788729, -0.709364]])
        _, status = adaptive_oracle(
            verts, -1.121291815, 2.505329, tol=1e-13, want_hyper=True, return_status=True
        )
        assert status["converged"] is True
        assert isinstance(status["error"], float) and status["error"] <= 1e-13

    @pytest.mark.parametrize("proj", [1, 4])
    @pytest.mark.parametrize("z", [1e-4, 0.1, 10.0])
    def test_status_error_bounds_true_error(self, proj, z):
        # the vertex projection (one subtriangle) and the exterior one
        # (three signed subtriangles in one pass)
        verts = verts_rel(SAMPLE_PROJECTIONS[proj])
        rough, status = adaptive_oracle(verts, z, 1.0, tol=1e-9, return_status=True)
        fine = adaptive_oracle(verts, z, 1.0, tol=1e-13)
        assert np.max(np.abs(rough.values - fine.values)) <= status["error"]

    def test_one_outer_pass(self, monkeypatch):
        # one pass, started from equal pieces that tile every edge's range of
        # u = asinh(s / h), laid end to end, none wider than start_width at the
        # nearest pole: i pi / 2 with want_hyper, i beta_e = i (pi - arccos(|z| / h_e))
        # without
        calls = []
        inner = numquad.quad_adaptive

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(numquad, "quad_adaptive", counted)
        verts, z = verts_rel(SAMPLE_PROJECTIONS[4]), 0.1
        widths, heights = [], []
        for p, q in zip(verts, np.roll(verts, -1, axis=0)):
            t = (q - p) / np.linalg.norm(q - p)
            h = math.hypot(p[0] * t[1] - p[1] * t[0], z)
            widths.append(math.asinh(q @ t / h) - math.asinh(p @ t / h))
            heights.append(h)
        offsets = np.concatenate([[0.0], np.cumsum(widths)])
        for want_hyper in (True, False):
            calls.clear()
            adaptive_oracle(verts, z, 1.0, tol=1e-13, want_hyper=want_hyper)
            assert len(calls) == 1
            a, b = calls[0]
            assert a[0] == 0.0 and np.array_equal(a[1:], b[:-1])
            assert b[-1] == pytest.approx(offsets[-1], rel=1e-14)
            for lo, hi, h in zip(offsets[:-1], offsets[1:], heights):
                pole = math.pi / 2 if want_hyper else math.pi - math.acos(z / h)
                limit = kronrod.start_width(pole, 1e-13, offsets[-1])
                assert np.min(np.abs(a - lo)) <= 1e-14  # a piece starts where the range does
                mine = (a >= lo - 1e-14) & (b <= hi + 1e-14)
                assert np.ptp(b[mine] - a[mine]) <= 1e-14  # equal pieces
                assert np.sum(b[mine] - a[mine]) == pytest.approx(hi - lo, rel=1e-14)
                assert np.max(b[mine] - a[mine]) <= limit * (1.0 + 1e-14)
                assert np.count_nonzero(mine) == math.ceil((hi - lo) / limit)  # and no narrower
            assert len(a) > len(widths)

    def test_first_round_accepts(self, monkeypatch):
        # the starting pieces, sized from the integrands' poles, are narrow
        # enough that every pass accepts them all in its first round
        rounds = []
        gk15 = kronrod.gk15

        def counted(f, lo, hi):
            rounds.append(len(lo))
            return gk15(f, lo, hi)

        monkeypatch.setattr(kronrod, "gk15", counted)
        for proj, z in FROZEN_ORACLE:
            rounds.clear()
            adaptive_oracle(verts_rel(SAMPLE_PROJECTIONS[proj]), z, 1.0, tol=1e-13, want_hyper=True)
            assert len(rounds) == 1, (proj, z)

    def test_start_is_held_at_the_interval_cap(self, monkeypatch):
        # at tol 1e-300 the derived u-widths are about 1e-21: the start stays
        # within the pass's interval cap, which a finer one could not refine
        starts = []
        inner = numquad.quad_adaptive

        def counted(f, a, b, tol):
            starts.append(len(a))
            return inner(f, a, b, tol)

        monkeypatch.setattr(numquad, "quad_adaptive", counted)
        got, status = adaptive_oracle(
            verts_rel(SAMPLE_PROJECTIONS[2]), 0.1, 1.0, tol=1e-300, want_hyper=True, return_status=True
        )
        assert kronrod.MAX_INTERVALS / 2 < starts[-1] <= kronrod.MAX_INTERVALS + 4
        assert np.isfinite(got.values).all() and not status["converged"]

    @pytest.mark.parametrize("seed, index", [(13, 147), (12, 151)])
    def test_status_error_covers_angle_roundoff(self, monkeypatch, seed, index):
        # d2I0/dn2 of about 870 and 490 on these random inputs: two starts of
        # the pass, from the derived widths and from half of them, sum in
        # different orders and differ by a few ulps, far above the GK15
        # estimates; the status errors carry the sums' roundoff and so cover
        # that difference
        spec = importlib.util.spec_from_file_location(
            "oracle_random", Path(__file__).resolve().parents[1] / "bench" / "oracle_random.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        verts, z, k = list(bench.inputs(index + 1, seed))[index]
        width = kronrod.start_width
        runs = []
        for scale in (1.0, 0.5):
            monkeypatch.setattr(kronrod, "start_width", lambda *args, scale=scale: scale * width(*args))
            runs.append(adaptive_oracle(verts, z, k, tol=1e-13, want_hyper=True, return_status=True))
        (v1, s1), (v2, s2) = runs
        assert np.max(np.abs(v1.values)) > 100.0
        assert np.any(v1.values != v2.values)
        assert np.all(np.abs(v1.values - v2.values) <= s1["error"] + s2["error"])


class TestGK15:
    def test_polynomials_to_degree_22(self):
        # K15 is exact to degree 22, so only roundoff remains: within 5 eps
        # of int |f| here, where a 15-digit table reached 19
        lo, hi = np.array([0.0, -1.0]), np.array([1.0, 2.0])
        for d in range(23):
            v, _, _ = kronrod.gk15(lambda x: x[:, None] ** d, lo, hi)
            exact = np.array([1.0, 2.0 ** (d + 1) - (-1.0) ** (d + 1)]) / (d + 1)
            mass = np.array([1.0, 2.0 ** (d + 1) + 1.0]) / (d + 1)
            assert np.all(np.abs(v[:, 0] - exact) <= 8 * np.finfo(float).eps * mass), d


class TestQuadAdaptive:
    @staticmethod
    def counted_sin(calls):
        def f(x):
            calls.append(len(x))
            return np.sin(x)[:, None]

        return f

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, 0.0])
    def test_tol_not_positive_raises(self, tol):
        # a NaN tol returned the first round as converged, a negative one
        # bisected to the interval cap
        calls = []
        with pytest.raises(ValueError, match="tol"):
            quad_adaptive(self.counted_sin(calls), 0.0, 1.0, tol)
        assert calls == []

    @pytest.mark.parametrize("a, b", [([0.0, 0.5], [0.5]), (0.0, [0.5, 1.0]), ([0.0, 0.5, 1.0], [0.5, 1.0])])
    def test_ends_of_different_lengths_raise(self, a, b):
        # they broadcast: a = [0, 0.5], b = [0.5] returned the integral of
        # sin over [0, 0.5] alone
        calls = []
        with pytest.raises(ValueError, match="a and b"):
            quad_adaptive(self.counted_sin(calls), a, b, 1e-10)
        assert calls == []

    def test_vector_components(self):
        def f(x):
            x = np.asarray(x)
            return np.stack([np.exp(x), np.sin(3 * x)], axis=-1)

        v, err, ok = quad_adaptive(f, 0.0, 1.0, 1e-13)
        assert ok
        assert complex(v[0]) == pytest.approx(math.e - 1.0, abs=1e-13)
        assert complex(v[1]) == pytest.approx((1 - math.cos(3.0)) / 3.0, abs=1e-13)

    def test_nonconvergence_reported(self, monkeypatch):
        def f(x):
            x = np.asarray(x)
            return (np.abs(x) ** -0.5)[:, None]

        monkeypatch.setattr(kronrod, "MAX_INTERVALS", 12)
        _, err, ok = quad_adaptive(f, 1e-30, 1.0, 1e-13)
        assert not ok
        assert err > 1e-13

    def test_nan_integrand_not_converged(self):
        # NaN on part of the range: an estimate that is not finite ends the
        # pass in its first round, not converged, with no bisection of the
        # finite part (whose kink alone would take several rounds)
        calls = []

        def f(x):
            calls.append(len(x))
            return np.where(x < 0.3, np.nan, np.sqrt(np.abs(x - 0.75)))[:, None]

        v, err, ok = quad_adaptive(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]), 1e-10)
        assert not ok and math.isnan(err) and math.isnan(v[0].real)
        assert calls == [30]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_integrand_warns_not(self, bad):
        # 0 inf (the G7 weights of the Kronrod-only nodes) and inf - inf
        # stay inside gk15, which the suite's warnings-as-errors would show
        v, err, ok = quad_adaptive(lambda x: np.full((len(x), 1), bad), 0.0, 0.3, 1e-10)
        assert not ok and not math.isfinite(err)
        assert v[0] == bad or (math.isnan(bad) and math.isnan(v[0]))

    def test_several_intervals(self):
        # a jump at the joint of [0, 0.5] and [0.5, 1]: each interval is
        # smooth, so one round of 15 nodes each meets tol with no bisection
        sizes = []

        def f(x):
            sizes.append(len(x))
            left = x < 0.5
            jump = np.where(left, 1.0, -2.0)
            return np.stack([np.where(left, np.exp(x), np.cos(3 * x)), jump], axis=-1)

        v, err, ok = quad_adaptive(f, np.array([0.0, 0.5]), np.array([0.5, 1.0]), 1e-13)
        assert ok and err <= 1e-13
        assert sizes == [30]
        assert abs(v[0] - (math.exp(0.5) - 1.0 + (math.sin(3.0) - math.sin(1.5)) / 3.0)) <= 1e-13
        assert abs(v[1] - (-0.5)) <= 1e-13


class TestQuadCumulative:
    """Integrals from 0 to many limits: one adaptive pass over the gaps between them (``helpers.cumulative``)."""

    @staticmethod
    def f(x):
        return np.stack([np.exp((1 + 2j) * x), np.cos(3 * x) + 1j * x * x], axis=-1)

    def test_closed_form_unsorted_zero_repeated(self):
        limits = np.array([1.3, 0.0, 0.4, 1.3, 2.0, 0.4, 0.0])
        v, err, ok = cumulative(self.f, limits, 1e-13)
        assert ok
        assert err <= 1e-13
        want = np.stack(
            [
                (np.exp((1 + 2j) * limits) - 1) / (1 + 2j),
                np.sin(3 * limits) / 3 + 1j * limits**3 / 3,
            ],
            axis=-1,
        )
        assert v.shape == (7, 2)
        assert np.max(np.abs(v - want)) <= 1e-13
        assert np.all(v[limits == 0.0] == 0.0)

    def test_all_limits_zero(self):
        v, err, ok = cumulative(self.f, [0.0, 0.0], 1e-13)
        assert ok and err == 0.0
        assert v.shape == (2, 2) and np.all(v == 0.0)

    def test_matches_quad_adaptive(self):
        # a radial moment: smooth in t, oscillating for large k
        az, k = 1e-3, 7.0

        def f(t):
            m = 2.0 * np.exp(1j * k * (az + t * t)) * t * t * np.sqrt(t * t + 2 * az)
            return m[:, None]

        limits = RNG.uniform(0.05, 1.5, size=9)
        v, _, ok = cumulative(f, limits, 1e-14)
        assert ok
        for L, got in zip(limits, v[:, 0]):
            want, _, ok_a = quad_adaptive(f, 0.0, L, 1e-14)
            assert ok_a
            assert abs(got - want[0]) <= 1e-13

    def test_starting_gaps_not_capped(self):
        # many limits, one pass over their gaps: each distinct limit starts
        # one gap of its own, so the first round evaluates 15 points per
        # gap, at every limit at once, and the pass bisects from there
        sizes = []

        def f(x):
            sizes.append(len(x))
            return np.exp(10j * x)[:, None]

        limits = np.append(np.linspace(0.1, 1.0, 10), 2.0)
        v, err, ok = cumulative(f, limits, 1e-13)
        assert ok and err <= 1e-13
        assert sizes[0] == 15 * len(limits) and len(sizes) > 1  # the pass bisected
        assert np.max(np.abs(v[:, 0] - (np.exp(10j * limits) - 1) / 10j)) <= 1e-13

    @pytest.mark.parametrize("az", [1e-3, 0.3, 2.0])
    @pytest.mark.parametrize("tol", [1e-7, 1e-11])
    def test_partial_pieces_within_estimate(self, az, tol):
        # a radial moment at k = 0, int_0^tau 2 t^2 sqrt(t^2 + 2|z|) dt, is
        # int_|z|^Rbar sqrt(R^2 - z^2) dR with R = |z| + t^2, in closed form;
        # at 200 random limits every value must stay within the estimate
        def f(t):
            return (2.0 * t * t * np.sqrt(t * t + 2.0 * az))[:, None]

        def closed(tau):
            R = az + tau * tau
            w = np.sqrt(R * R - az * az)
            return 0.5 * (R * w - az * az * np.log(R + w)) + 0.5 * az * az * math.log(az)

        limits = RNG.uniform(0.0, 1.5, size=200)
        v, err, ok = cumulative(f, limits, tol)
        assert ok and err <= tol
        assert np.max(np.abs(v[:, 0] - closed(limits))) <= err


class TestTriRule:
    def test_weights_sum_to_one(self):
        rule = tri_rule(16)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-13)
        assert rule.degree >= 30
        assert np.all(rule.weights > 0)
        assert np.allclose(np.sum(rule.bary, axis=1), 1.0, atol=1e-14)

    def test_symmetry(self):
        # node multiset is invariant under barycentric permutation
        rule = tri_rule(8)
        key = np.sort(np.round(rule.bary, 12), axis=1)
        a = np.lexsort(key.T)
        perm = np.sort(np.round(rule.bary[:, [1, 2, 0]], 12), axis=1)
        b = np.lexsort(perm.T)
        assert np.allclose(key[a], perm[b])

    def test_monomial_exactness(self):
        # integral of x^p y^q over the unit simplex is p! q! / (p+q+2)!
        rule = tri_rule(16)
        x = rule.bary[:, 1]
        y = rule.bary[:, 2]
        for p in range(0, 13, 3):
            for q in range(0, 13 - p, 4):
                exact = (
                    math.factorial(p)
                    * math.factorial(q)
                    / math.factorial(p + q + 2)
                )
                got = 0.5 * np.sum(rule.weights * x**p * y**q)
                # weights are normalized to the physical area (1/2 here)
                assert got == pytest.approx(0.5 * exact * 2.0, rel=1e-12)
