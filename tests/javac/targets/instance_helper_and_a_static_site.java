import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;

class R {
    AudioAttributes makeAttrs(int u) {
        return null;
    }

    static void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }

    void ringAgain(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
